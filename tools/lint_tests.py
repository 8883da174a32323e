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

It keeps the README's environment-variable table honest: every
``REPRO_*`` name that appears in ``src/`` must have a row in the table under
README's ``## Environment variables`` heading, and every row must name a
variable ``src/`` still references — a new knob needs a documented
production reason, and a retired one leaves the table.

Finally it keeps each serving responsibility in one place: every pattern
in :data:`SINGLE_DEFINITIONS` may match at most one module of
``src/repro/serve/``.  They are the
front-door core's request policy (the breaker, shed-victim choice and
retry, in ``frontdoor.py``), the ring's result-slot handling
(``isinstance(..., ExpiredRequest)``, in ``cluster.py``) and the one solve
path (``.solve_batch(`` and ``.degraded_sibling(``, in ``executor.py``).

It keeps one Krylov recurrence in ``src/repro/solvers/``
(:data:`SOLVER_LIMITS`): no single-RHS ``def fgmres_cycle(`` exists beside
the batch cycle, and the Gram-Schmidt kernel ``.orthonormalize(`` and the
Richardson ``.weighted_update(`` and ``.richardson_sweep(`` (the engine's
compiled invocation) each have at most one call site — the one Arnoldi loop
and the one Richardson level.  Those two level loops
(:data:`LEVEL_LOOPS`: ``fgmres_cycle_batch``, and
``RichardsonLevel.apply_batch`` with its step loop ``_steps``) make no
``.astype(`` call: a level-boundary cast goes through ``vo.cast_vector``, the
engine's ``cast`` kernel, which ``native`` compiles; all of them must exist.

And it keeps one kernel per operation below the solver
(:data:`BACKEND_LIMITS`): every kernel takes a vector or an ``(n, k)`` block,
so no second, block-only form (``spmm_csr``, ``trsm``, ``axpy_block``, their
slab executors and recorders, ...) may be defined anywhere in
``src/repro/``.  Under ``src/repro/backends/`` and ``src/repro/precond/``
and in ``sparse/vectorops.py`` no module calls ``record_bytes`` /
``record_flops`` / ``record_kernel``: every engine, preconditioner and
vector kernel records a call's traffic as one cached record.

It keeps one multi-process transport (:data:`PROCESS_LIMITS`): the retired
process tier's entry points (``ProcPool``, ``ShardedGateway``,
``ShmRegistry``, ``WorkerHung``, ``set_procs``, ``use_procs``,
``maybe_hang``) may not be defined anywhere in ``src/repro/``, and no module
but ``serve/remote.py`` (``spawn_server``) may import ``multiprocessing``:
several processes are ``ShardServer`` members of a ring.

It keeps fp16 staging inside the kernel engines (:data:`HALFVEC_HOMES`):
no module but those under ``backends/`` may import ``backends.halfvec``; a
caller that needs an fp16 operation asks the engine for a kernel.

It keeps the clock out of format and kernel choice (:data:`CLOCK_LIMITS`):
the retired measured-autotune entry points (``measured_assembled_format``,
``set_measurement_suppressed``, ``autotune_stats``, ``set_tuning_enabled``,
``clear_autotune_cache``) may not be defined anywhere in ``src/repro/``, and
no module under ``operators/``, ``plans/`` or ``backends/`` calls
``perf_counter``, ``time.time`` or ``monotonic``: an operator's storage
format and the kernel it runs are a pure function of the operator, the
engine and the precision, so a solve's bits never depend on a timing run.

It keeps one assembled storage format (:data:`FORMAT_LIMITS`): an assembled
operator stores and applies CSR on every engine, so sliced ELL
(``SlicedEllMatrix``, the engines' ``spmv_ell`` and ``native.c``'s
``spmv_ell_*`` / ``ell_sums_*``), the engine hook
``preferred_assembled_format`` and a ``format=`` / ``chunk_size=`` option
of ``AssembledOperator`` or ``as_operator`` may not appear in ``src/repro/``.

And it keeps compiled code in one place and tested (:data:`NATIVE_LIMITS`):
no module but ``backends/native.py`` may import ``ctypes``, and every symbol
in that module's ``_SIGNATURES`` table — each compiled kernel of every
instruction set — must be named in a ``tests/test_native*.py`` file, so a
kernel cannot ship without a test.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS_DIR = ROOT / "tests"
SRC_DIR = ROOT / "src"
SERVE_DIR = SRC_DIR / "repro" / "serve"
#: the modules the SINGLE_DEFINITIONS scan covers
SERVING_MODULES = tuple(sorted(SERVE_DIR.glob("*.py")))
#: the one module that may import multiprocessing (spawn_server)
MULTIPROCESSING_HOME = SERVE_DIR / "remote.py"
README = ROOT / "README.md"
SOLVERS_DIR = SRC_DIR / "repro" / "solvers"

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
                                       # allocation regression (PR 4)
    "test_plans_alloc*.py",            # per-thread arenas: no steady-state
                                       # allocation, and one plan / solver /
                                       # factor hammered from four threads
    "test_robustness*.py",             # guards, recovery ladder, dispatcher
                                       # hardening, guarded parity (PR 6)
    "test_faults*.py",                 # fault-injection determinism and the
                                       # seeded 50-request hammer (PR 6)
    "test_cache_artifacts*.py",        # artifact store: hit/miss, corruption
                                       # tolerance, restart-skip (PR 7)
    "test_sparse_io*.py",              # MatrixMarket reader/writer fixes (PR 7)
    "test_overload*.py",               # priority admission / load shedding,
                                       # brownout hysteresis, metrics export,
                                       # the tier-2 overload hammer (PR 9)
    "test_remote*.py",                 # remote shard tier: frame codec, net
                                       # faults, reconnect + replay, dedup,
                                       # hedging, failover, the tier-2
                                       # cluster chaos hammer (PR 10)
    "test_frontdoor*.py",              # one request-policy contract run
                                       # against every serving front door
    "test_native*.py",                 # compiled engine: bit identity with
                                       # reference, thread safety, and the
                                       # fallback to fast without a compiler
)

#: serving responsibilities with one home: each pattern may match at most
#: one of the SERVING_MODULES
SINGLE_DEFINITIONS = {
    "_breaker_check": re.compile(r"^\s*def _breaker_check\b", re.MULTILINE),
    "_breaker_record": re.compile(r"^\s*def _breaker_record\b", re.MULTILINE),
    "_shed_victim_locked": re.compile(r"^\s*def _shed_victim_locked\b",
                                      re.MULTILINE),
    "_retry_or_fail": re.compile(r"^\s*def _retry_or_fail\b", re.MULTILINE),
    "class _Breaker": re.compile(r"^\s*class _Breaker\b", re.MULTILINE),
    "isinstance(..., ExpiredRequest)": re.compile(
        r"isinstance\([^)]*\bExpiredRequest\b"),
    ".solve_batch(": re.compile(r"\.solve_batch\("),
    ".degraded_sibling(": re.compile(r"\.degraded_sibling\("),
}

#: the level loops of src/repro/solvers/ (``function`` or ``Class.method``),
#: whose level-boundary casts run the engine's ``cast`` kernel
LEVEL_LOOPS = ("fgmres_cycle_batch", "RichardsonLevel.apply_batch",
               "RichardsonLevel._steps")

#: the one Krylov recurrence: how many matches each pattern may have across
#: src/repro/solvers/*.py (a third element limits the scan to those
#: functions' source)
SOLVER_LIMITS = {
    "def fgmres_cycle(": (re.compile(r"^def fgmres_cycle\(", re.MULTILINE), 0),
    ".orthonormalize(": (re.compile(r"\.orthonormalize\("), 1),
    ".weighted_update(": (re.compile(r"\.weighted_update\("), 1),
    ".richardson_sweep(": (re.compile(r"\.richardson_sweep\("), 1),
    ".astype( in the level loops": (re.compile(r"\.astype\("), 0, LEVEL_LOOPS),
}



def _definition(name: str) -> re.Pattern:
    """A ``def NAME(`` at any indentation (``NAME`` is a regex)."""
    return re.compile(rf"^\s*def {name}\(", re.MULTILINE)


#: one kernel per operation: the block-only second forms of the kernels,
#: none of which may be defined across src/repro/**/*.py; and the engines,
#: the preconditioners and the vector kernels record traffic only through
#: cached per-call records (further elements that are paths limit the scan
#: to those modules and the modules under those directories)
BACKEND_LIMITS = {
    **{name.replace(r"\w+", "*"): (_definition(name), 0) for name in (
        "spmm_csr", "spmm_ell", "apply_stencil_batch", "trsm", "spmm_axpy",
        "residual_update_batch", "_record_spmm", "_record_trsm",
        "trsm_level_chunks", "csr_matvecs_slabs", r"spmm_\w+_slabs",
        "axpy_block", "cast_block", "_apply_fused_single")},
    "record_bytes( / record_flops( / record_kernel( in backends/, precond/, "
    "sparse/vectorops.py": (
        re.compile(r"\brecord_(?:bytes|flops|kernel)\("), 0,
        SRC_DIR / "repro" / "backends", SRC_DIR / "repro" / "precond",
        SRC_DIR / "repro" / "sparse" / "vectorops.py"),
}

#: one multi-process transport: the retired process tier's entry points,
#: none of which may be defined (as a class or a function) in src/repro/
PROCESS_LIMITS = {
    name: (re.compile(rf"^\s*(?:class|def) {name}\b", re.MULTILINE), 0)
    for name in ("ProcPool", "ShardedGateway", "ShmRegistry", "WorkerHung",
                 "set_procs", "use_procs", "maybe_hang")
}
#: ... and no module but MULTIPROCESSING_HOME may import multiprocessing
MULTIPROCESSING_LIMITS = {
    "import multiprocessing": (re.compile(
        r"^\s*(?:import|from)\s+multiprocessing\b", re.MULTILINE), 0),
}

#: no clock in format or kernel choice: the retired measured-autotune entry
#: points, none of which may be defined in src/repro/; and no clock read in
#: the modules under operators/, plans/ and backends/
CLOCK_LIMITS = {
    **{name: (re.compile(rf"^\s*(?:class|def) {name}\b", re.MULTILINE), 0)
       for name in ("measured_assembled_format", "set_measurement_suppressed",
                    "autotune_stats", "set_tuning_enabled",
                    "clear_autotune_cache")},
    "perf_counter( / time.time( / monotonic( in operators/, plans/, "
    "backends/": (
        re.compile(r"\b(?:perf_counter|monotonic|time\.time)(?:_ns)?\s*\("), 0,
        SRC_DIR / "repro" / "operators", SRC_DIR / "repro" / "plans",
        SRC_DIR / "repro" / "backends"),
}

#: the one module that may load compiled code (the native engine)
NATIVE_HOME = SRC_DIR / "repro" / "backends" / "native.py"
#: the native engine's C source
NATIVE_SOURCE = NATIVE_HOME.with_suffix(".c")
#: one assembled storage format: none of these may match in src/repro/ (its
#: Python modules and the native engine's C source)
FORMAT_LIMITS = {
    "SlicedEllMatrix": (re.compile(r"\bSlicedEll\w*"), 0),
    "spmv_ell / ell_sums": (re.compile(r"\b(?:spmv_ell|ell_sums)\w*"), 0),
    "preferred_assembled_format": (
        re.compile(r"\bpreferred_assembled_format\b"), 0),
    "AssembledOperator(..., format= / chunk_size=)": (
        re.compile(r"\bAssembledOperator\([^)]*\b(?:format|chunk_size)\s*="), 0),
    "def as_operator(..., format)": (
        re.compile(r"\bdef as_operator\([^)]*\bformat\b"), 0),
    "format / chunk_size parameter in operators/assembled.py": (
        re.compile(r"\b(?:format|chunk_size)\s*(?::[^=,)]*)?="), 0,
        SRC_DIR / "repro" / "operators" / "assembled.py"),
}
#: no module but NATIVE_HOME may import ctypes
NATIVE_LIMITS = {
    "import ctypes": (re.compile(r"^\s*(?:import|from)\s+ctypes\b",
                                 re.MULTILINE), 0),
}
#: the test files that must name every compiled symbol
NATIVE_TESTS = "test_native*.py"

#: the modules that may import backends.halfvec (the fp16 staging helpers):
#: the engines
HALFVEC_HOMES = (SRC_DIR / "repro" / "backends",)


def imports_halfvec(path: Path) -> bool:
    """Whether ``path`` imports the ``halfvec`` module of a ``backends``
    package, in any import form."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name.endswith("backends.halfvec") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if parts[-1] == "halfvec" or (
                    parts[-1] == "backends"
                    and any(alias.name == "halfvec" for alias in node.names)):
                return True
    return False


def halfvec_importers(paths) -> list[str]:
    """The modules of ``paths`` outside :data:`HALFVEC_HOMES` that import
    ``backends.halfvec``."""
    return [str(path.relative_to(SRC_DIR)) for path in paths
            if not any(path == home or home in path.parents
                       for home in HALFVEC_HOMES)
            and imports_halfvec(path)]


def native_symbols(path: Path = NATIVE_HOME) -> list[str]:
    """The keys of the module-level ``_SIGNATURES`` dict literal in
    ``path``: every symbol the native engine loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "_SIGNATURES"
                        for t in node.targets)):
            return [key.value for key in node.value.keys
                    if isinstance(key, ast.Constant)]
    return []


def untested_native_symbols(path: Path = NATIVE_HOME,
                            tests_dir: Path = TESTS_DIR) -> list[str]:
    """Symbols of :func:`native_symbols` that no ``test_native*.py`` names
    (as a whole word: ``trsv_f16`` is not named by ``trsv_f16_avx2``)."""
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted(tests_dir.glob(NATIVE_TESTS)))
    return [name for name in native_symbols(path)
            if not re.search(rf"\b{re.escape(name)}\b", text)]


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


def duplicated_definitions() -> dict[str, list[str]]:
    """Serving definitions found in more than one serving module."""
    found: dict[str, list[str]] = {}
    for path in SERVING_MODULES:
        text = path.read_text(encoding="utf-8")
        for name, pattern in SINGLE_DEFINITIONS.items():
            if pattern.search(text):
                found.setdefault(name, []).append(path.name)
    return {name: mods for name, mods in found.items() if len(mods) > 1}


def function_sources(text: str, names) -> dict[str, str]:
    """The source of each function of module ``text`` that ``names`` lists,
    as ``function`` or ``Class.method``, by that name."""
    found = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and prefix + node.name in names):
                found[prefix + node.name] = ast.get_source_segment(text, node)

    visit(ast.parse(text).body, "")
    return found


def limit_excess(paths, limits: dict) -> dict[str, list[str]]:
    """Patterns of ``limits`` matched more often across ``paths`` than they
    allow, with the module of every match; a limit with a third element
    counts matches only inside the functions it names or, when it and any
    further elements are paths, only in those modules and the modules under
    those directories."""
    found: dict[str, list[str]] = {name: [] for name in limits}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for name, (pattern, _, *scope) in limits.items():
            if scope and isinstance(scope[0], Path):
                body = text if any(p == path or p in path.parents
                                   for p in scope) else ""
            elif scope:
                body = "\n".join(function_sources(text, scope[0]).values())
            else:
                body = text
            found[name] += [path.name] * len(pattern.findall(body))
    return {name: mods for name, mods in found.items()
            if len(mods) > limits[name][1]}


def _report_excess(excess: dict, limits: dict, headline: str) -> None:
    print(headline, file=sys.stderr)
    for name, modules in sorted(excess.items()):
        print(f"  {name}: {len(modules)} match(es), at most "
              f"{limits[name][1]} allowed ({', '.join(modules)})",
              file=sys.stderr)


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
    duplicated = duplicated_definitions()
    if duplicated:
        print("lint-tests: serving logic found in more than one module of "
              "src/repro/serve/ (see SINGLE_DEFINITIONS for its home):",
              file=sys.stderr)
        for name, modules in sorted(duplicated.items()):
            print(f"  {name}: {', '.join(modules)}", file=sys.stderr)
        status = 1
    solver_modules = sorted(SOLVERS_DIR.glob("*.py"))
    excess = limit_excess(solver_modules, SOLVER_LIMITS)
    if excess:
        _report_excess(excess, SOLVER_LIMITS,
                       "lint-tests: src/repro/solvers/ holds a second Krylov "
                       "recurrence, or a level loop casts outside the "
                       "engine's cast kernel (one batch cycle and one "
                       "Richardson sweep serve every column count; see "
                       "SOLVER_LIMITS):")
        status = 1
    loops = {name for path in solver_modules for name in function_sources(
        path.read_text(encoding="utf-8"), LEVEL_LOOPS)}
    if loops != set(LEVEL_LOOPS):
        print("lint-tests: level loops of LEVEL_LOOPS not found in "
              "src/repro/solvers/ (renamed? update LEVEL_LOOPS):",
              file=sys.stderr)
        for name in sorted(set(LEVEL_LOOPS) - loops):
            print(f"  {name}", file=sys.stderr)
        status = 1
    src_modules = sorted((SRC_DIR / "repro").rglob("*.py"))
    excess = limit_excess(src_modules, BACKEND_LIMITS)
    if excess:
        _report_excess(excess, BACKEND_LIMITS,
                       "lint-tests: src/repro/ defines a second, block-only "
                       "kernel form (one kernel takes vectors and (n, k) "
                       "blocks), or an engine records traffic field by field "
                       "(see BACKEND_LIMITS):")
        status = 1
    excess = {
        **limit_excess(src_modules, PROCESS_LIMITS),
        **limit_excess([path for path in src_modules
                        if path != MULTIPROCESSING_HOME],
                       MULTIPROCESSING_LIMITS)}
    if excess:
        _report_excess(excess, {**PROCESS_LIMITS, **MULTIPROCESSING_LIMITS},
                       "lint-tests: src/repro/ holds a second multi-process "
                       "transport (several processes are ShardServers; see "
                       "PROCESS_LIMITS):")
        status = 1
    excess = limit_excess(src_modules, CLOCK_LIMITS)
    if excess:
        _report_excess(excess, CLOCK_LIMITS,
                       "lint-tests: src/repro/ lets a clock choose a format or "
                       "a kernel (the cost model decides, so a solve's bits "
                       "never depend on a timing run; see CLOCK_LIMITS):")
        status = 1
    excess = limit_excess(src_modules + [NATIVE_SOURCE], FORMAT_LIMITS)
    if excess:
        _report_excess(excess, FORMAT_LIMITS,
                       "lint-tests: src/repro/ brings back a second assembled "
                       "storage format (every assembled product runs CSR; see "
                       "FORMAT_LIMITS):")
        status = 1
    excess = limit_excess([path for path in src_modules if path != NATIVE_HOME],
                          NATIVE_LIMITS)
    if excess:
        _report_excess(excess, NATIVE_LIMITS,
                       "lint-tests: src/repro/ loads compiled code outside "
                       "backends/native.py (one native engine; see "
                       "NATIVE_LIMITS):")
        status = 1
    staging = halfvec_importers(src_modules)
    if staging:
        print("lint-tests: modules outside the kernel engines import "
              "backends.halfvec (fp16 staging belongs to backends/ and "
              "par/kernels.py; see HALFVEC_HOMES):", file=sys.stderr)
        for name in staging:
            print(f"  {name}", file=sys.stderr)
        status = 1
    symbols = native_symbols()
    untested = untested_native_symbols()
    if not symbols or untested:
        print("lint-tests: compiled symbols of backends/native.py's "
              f"_SIGNATURES that no tests/{NATIVE_TESTS} names (every "
              "compiled kernel needs a test; see NATIVE_LIMITS):",
              file=sys.stderr)
        for name in untested or ["(no _SIGNATURES table found)"]:
            print(f"  {name}", file=sys.stderr)
        status = 1
    if status == 0:
        print(f"lint-tests: OK ({len(test_files)} test files, all tier-marked; "
              f"{len(REQUIRED_MODULES)} required suites present; "
              f"{len(used)} REPRO_* variables documented; "
              f"{len(SINGLE_DEFINITIONS)} serving definitions unique; "
              f"one Krylov recurrence in solvers/, no casts outside the "
              f"engine's kernel in its level loops; one kernel per "
              f"operation in src/, recorded as one cached record; one "
              f"multi-process transport; no clock in format or kernel "
              f"choice; one assembled storage format; fp16 "
              f"staging only in the engines; ctypes only in "
              f"backends/native.py; {len(symbols)} compiled symbols named by "
              f"tests)")
    return status


if __name__ == "__main__":
    sys.exit(main())
