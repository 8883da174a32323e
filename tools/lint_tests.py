#!/usr/bin/env python
"""Fail if any test file lacks a tier marker (``make lint-tests``).

Every file under ``tests/`` must carry a module-level tier marker so the
tier-1 / tier-2 split stays exhaustive::

    pytestmark = pytest.mark.tier1        # or tier2, or a list including one

Class- or function-level tier markers may *refine* the file's default (e.g. a
tier-2 hypothesis sweep inside a tier-1 file), but the module-level marker is
what guarantees nothing silently falls out of both suites.

The checker also pins a manifest of *required* test-module globs
(:data:`REQUIRED_MODULES`): suites that gate an acceptance criterion — the
backend-equivalence contract, the batched-solve sweeps, the operator-layer
equivalence/end-to-end files — must exist under ``tests/``, so a rename or
deletion fails the lint instead of silently dropping the gate.

Finally it keeps the README's environment-variable table honest: every
``REPRO_*`` name that appears in ``src/`` must have a row in the table under
README's ``## Environment variables`` heading, and every row must name a
variable ``src/`` still references — a new knob needs a documented
production reason, and a retired one leaves the table.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS_DIR = ROOT / "tests"
SRC_DIR = ROOT / "src"
README = ROOT / "README.md"

#: a ``REPRO_*`` environment-variable name (``REPRO_*`` itself does not match)
ENV_NAME_RE = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")
#: one row of the README table: ``| `REPRO_NAME` | reason |``
ENV_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", re.MULTILINE)
ENV_HEADING = "## Environment variables"

#: module-level assignment like ``pytestmark = pytest.mark.tier1`` or
#: ``pytestmark = [pytest.mark.tier2, ...]`` (anchored to column 0)
MARKER_RE = re.compile(r"^pytestmark\s*=.*pytest\.mark\.tier[12]", re.MULTILINE)

#: globs that must each match at least one test file: the suites that pin an
#: issue's acceptance criteria
REQUIRED_MODULES = (
    "test_backends_equivalence*.py",   # kernel-engine contract (PR 1)
    "test_batched_solves*.py",         # batched multi-RHS engine (PR 2)
    "test_operators*.py",              # operator layer: equivalence + e2e (PR 3)
    "test_plans*.py",                  # solve plans: fused parity, staged fp16,
                                       # autotune, allocation regression (PR 4)
    "test_parallel*.py",               # multicore engine: REPRO_THREADS
                                       # bit-identity sweep, counter parity,
                                       # pool budget, concurrency audit (PR 5)
    "test_robustness*.py",             # guards, recovery ladder, dispatcher
                                       # hardening, guarded parity (PR 6)
    "test_faults*.py",                 # fault-injection determinism and the
                                       # seeded 50-request hammer (PR 6)
    "test_cache_artifacts*.py",        # artifact store: hit/miss, corruption
                                       # tolerance, restart-skip, autotune
                                       # disk-cache merge (PR 7)
    "test_sparse_io*.py",              # MatrixMarket reader/writer fixes (PR 7)
    "test_procpool*.py",               # process tier: shm lifecycle, REPRO_PROCS
                                       # bit-identity, crash recovery (PR 8)
    "test_overload*.py",               # priority admission / load shedding,
                                       # brownout hysteresis, metrics export,
                                       # the tier-2 overload hammer (PR 9)
    "test_watchdog*.py",               # worker heartbeats, hang classification,
                                       # respawn semantics (PR 9)
    "test_remote*.py",                 # remote shard tier: frame codec, net
                                       # faults, reconnect + replay, dedup,
                                       # hedging, failover, the tier-2
                                       # cluster chaos hammer (PR 10)
)


def documented_env_names() -> set[str]:
    """``REPRO_*`` names listed in README's environment-variable table."""
    text = README.read_text(encoding="utf-8")
    _, found, section = text.partition(f"\n{ENV_HEADING}\n")
    if not found:
        return set()
    return set(ENV_ROW_RE.findall(section.split("\n## ", 1)[0]))


def src_env_names() -> set[str]:
    """Every ``REPRO_*`` name referenced anywhere under ``src/``."""
    names: set[str] = set()
    for path in sorted(SRC_DIR.rglob("*.py")):
        names.update(ENV_NAME_RE.findall(path.read_text(encoding="utf-8")))
    return names


def main() -> int:
    test_files = sorted(TESTS_DIR.glob("test_*.py"))
    if not test_files:
        print(f"lint-tests: no test files found under {TESTS_DIR}", file=sys.stderr)
        return 2
    status = 0
    missing = [path for path in test_files
               if not MARKER_RE.search(path.read_text(encoding="utf-8"))]
    if missing:
        print("lint-tests: test files without a module-level tier marker "
              "(add `pytestmark = pytest.mark.tier1` or tier2):", file=sys.stderr)
        for path in missing:
            print(f"  {path.relative_to(TESTS_DIR.parent)}", file=sys.stderr)
        status = 1
    absent = [glob for glob in REQUIRED_MODULES if not list(TESTS_DIR.glob(glob))]
    if absent:
        print("lint-tests: required test modules are missing (an acceptance "
              "gate was renamed or deleted):", file=sys.stderr)
        for glob in absent:
            print(f"  tests/{glob}", file=sys.stderr)
        status = 1
    used, documented = src_env_names(), documented_env_names()
    if used != documented:
        print(f"lint-tests: README's '{ENV_HEADING}' table is out of step "
              "with src/:", file=sys.stderr)
        for name in sorted(used - documented):
            print(f"  {name}: read in src/ but not listed", file=sys.stderr)
        for name in sorted(documented - used):
            print(f"  {name}: listed but no longer read in src/",
                  file=sys.stderr)
        status = 1
    if status == 0:
        print(f"lint-tests: OK ({len(test_files)} test files, all tier-marked; "
              f"{len(REQUIRED_MODULES)} required suites present; "
              f"{len(used)} REPRO_* variables documented)")
    return status


if __name__ == "__main__":
    sys.exit(main())
