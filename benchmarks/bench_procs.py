"""Process-tier benchmark: sharded gateway throughput across ``REPRO_PROCS``.

Drives the :class:`~repro.serve.ShardedGateway` over a mixed assembled /
matrix-free workload and reports, per process count in the sweep:

* end-to-end throughput (requests/s) and wall time for the full workload,
* the zero-copy picture — shm segments published, bytes shared, and how many
  setups fell back to pickling (should be 0 for CSR/stencil traffic),
* batches per worker — every worker must run some (the workload's operators
  are picked so each worker owns a fingerprint), and
* bit-identity of every solution against the in-process
  :class:`~repro.serve.BatchDispatcher` reference (``max_workers=1`` — the
  deterministic configuration; see tests/test_procpool.py).

A second phase measures the warm-worker cold start: run one gateway against
an empty ``REPRO_ARTIFACTS`` store, close it, then start a *fresh* gateway
(fresh worker processes) against the populated store and record the
worker-side artifact hits plus the first-pass wall-time ratio.

Dev-box caveat: on a 1-core container ``auto`` resolves to 1 and the
multi-process entries measure spawn + queue overhead, not parallel speedup —
the sweep's value there is the bit-identity and zero-copy accounting, so the
regression gate only floors the ``procs=1`` throughput.  Writes
``BENCH_procs.json``.

Not collected by pytest; run directly or via make:

    PYTHONPATH=src python benchmarks/bench_procs.py --check
    PYTHONPATH=src python benchmarks/bench_procs.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

# must precede the repro imports: measured autotune reads REPRO_TUNE at
# import time, and per-process timing must not steer format choices when
# the whole point is bit-identity across process counts
os.environ.setdefault("REPRO_TUNE", "0")

import numpy as np

import repro.cache as cache
from repro.core import F3RConfig
from repro.matgen import hpcg_matrix
from repro.operators import AssembledOperator, StencilOperator
from repro.serve import BatchDispatcher, ShardedGateway
from repro.serve.gateway import route_fingerprint
from repro.sparse import diagonal_scaling
from repro.sparse.triangular import clear_levels_memo

SCALES = {
    "smoke": {"hpcg_n": 12, "n_rhs": 24, "max_batch": 4, "repeats": 2},
    "full": {"hpcg_n": 24, "n_rhs": 96, "max_batch": 8, "repeats": 3},
}

BASELINE_PATH = Path(__file__).parent / "BENCH_procs_baseline.json"
OUTPUT_PATH = Path(__file__).parent / "BENCH_procs.json"


def _operators(hpcg_n: int, sweep: list) -> list:
    """One assembled HPCG matrix plus matrix-free 7-point stencils.

    The gateway pins each fingerprint to one worker (rendezvous hashing), so
    stencils with growing centre coefficients are added until every worker
    of every swept process count owns at least one fingerprint — otherwise
    some workers would sit idle and the sweep would measure fewer of them
    than it names.
    """
    A, _ = diagonal_scaling(hpcg_matrix(hpcg_n))
    operators = [AssembledOperator(A)]
    offsets = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
               (0, 0, 1), (0, 0, -1)]

    def owned(op) -> set:
        return {(p, route_fingerprint(op.fingerprint(), p)) for p in sweep}

    missing = {(p, slot) for p in sweep for slot in range(p)} - owned(operators[0])
    centre = 6.5
    while missing:
        stencil = StencilOperator((hpcg_n,) * 3, offsets,
                                  [centre, -1, -1, -1, -1, -1, -1])
        centre += 0.25
        if owned(stencil) & missing:
            operators.append(stencil)
            missing -= owned(stencil)
    return operators


def _workload(operators: list, n_rhs: int):
    """Mixed traffic cycling over ``operators``, one request per RHS."""
    rng = np.random.default_rng(2024)
    return [(operators[i % len(operators)],
             rng.random(operators[i % len(operators)].nrows))
            for i in range(n_rhs)]


def _procs_sweep() -> list:
    cores = os.cpu_count() or 1
    sweep = [1, 2, min(4, max(2, cores))]
    return sorted(set(sweep))


def _run_gateway(pairs, config, procs, max_batch, repeats):
    """Best-of-``repeats`` wall seconds plus the last run's summary/results."""
    best, results, summary = float("inf"), None, None
    for _ in range(repeats):
        with ShardedGateway(config, procs=procs, max_batch=max_batch,
                            max_workers=1) as gateway:
            start = time.perf_counter()
            results = gateway.solve_many(pairs)
            elapsed = time.perf_counter() - start
            summary = gateway.stats.summary()
        best = min(best, elapsed)
    return best, results, summary


def run(scale: str) -> dict:
    params = SCALES[scale]
    operators = _operators(params["hpcg_n"], _procs_sweep())
    pairs = _workload(operators, params["n_rhs"])
    config = F3RConfig(variant="fp16", backend="fast")
    n_rhs, max_batch = params["n_rhs"], params["max_batch"]

    with BatchDispatcher(config, max_batch=max_batch, max_workers=1) as d:
        reference = d.solve_many(pairs)
    assert all(r.converged for r in reference)

    sweep = {}
    identical = True
    for procs in _procs_sweep():
        wall, results, summary = _run_gateway(pairs, config, procs,
                                              max_batch, params["repeats"])
        same = all(np.array_equal(ref.x, got.x)
                   for ref, got in zip(reference, results))
        identical = identical and same
        procs_section = summary["procs"]
        entry = {
            "wall_s": round(wall, 6),
            "requests_per_s": round(n_rhs / wall, 2),
            "bit_identical": same,
            "mode": procs_section["mode"],
        }
        if procs_section["mode"] == "process-pool":
            workers = procs_section["workers"]
            entry["shm"] = {
                "published": procs_section["shm"]["lifetime_published"],
                "bytes": procs_section["shm"]["bytes"],
            }
            entry["worker_batches"] = workers["batches"]
            entry["batches_per_worker"] = {
                name: member["server"].get("batches", 0)
                for name, member in sorted(summary["cluster"]["members"].items())}
            entry["pickled_setups"] = workers["pickled_setups"]
        sweep[str(procs)] = entry

    # warm-worker cold start: fresh worker processes against a populated
    # artifact store skip refactorization on their first batch
    store_dir = tempfile.mkdtemp(prefix="repro-procs-bench-")
    old = cache.set_artifacts_dir(store_dir)
    cache.reset_cold_start_stats()
    clear_levels_memo()
    try:
        cold_wall, _, _ = _run_gateway(pairs, config, 2, max_batch, 1)
        warm_wall, _, warm_summary = _run_gateway(pairs, config, 2,
                                                  max_batch, 1)
        warm_workers = warm_summary["procs"]["workers"]
        warm = {
            "cold_first_pass_s": round(cold_wall, 6),
            "warm_first_pass_s": round(warm_wall, 6),
            "speedup": round(cold_wall / warm_wall if warm_wall > 0
                             else float("inf"), 3),
            "worker_artifact_hits": dict(warm_workers["warm_from_artifacts"]),
            "worker_artifact_saved_ms": round(
                warm_workers["artifact_saved_ms"], 3),
        }
    finally:
        cache.set_artifacts_dir(old)
        cache.reset_cold_start_stats()
        clear_levels_memo()
        shutil.rmtree(store_dir, ignore_errors=True)

    return {
        "scale": scale,
        "cores": os.cpu_count() or 1,
        "n": pairs[0][0].nrows,
        "operators": len(operators),
        "n_rhs": n_rhs,
        "max_batch": max_batch,
        "procs_sweep": sweep,
        "bit_identical": identical,
        "warm_worker": warm,
    }


def check_regressions(report: dict, baseline: dict,
                      factor: float = 2.0) -> list[str]:
    """Gate on correctness invariants plus the ``procs=1`` throughput floor.

    Multi-process throughput is not floored — on a 1-core box those entries
    measure oversubscription and vary too much to gate on.
    """
    failures = []
    if baseline.get("scale") != report.get("scale"):
        return [f"baseline mismatch: scale={baseline.get('scale')!r} vs "
                f"current {report.get('scale')!r}; regenerate with "
                f"--write-baseline"]
    if not report.get("bit_identical"):
        failures.append("gateway results not bit-identical to the "
                        "in-process dispatcher")
    for procs, entry in report["procs_sweep"].items():
        if entry.get("mode") != "process-pool":
            continue
        if entry["pickled_setups"]:
            failures.append(f"procs={procs}: {entry['pickled_setups']} "
                            f"setups fell back to pickling (zero-copy "
                            f"publish failed)")
        idle = [name for name, batches in entry["batches_per_worker"].items()
                if not batches]
        if len(entry["batches_per_worker"]) != int(procs) or idle:
            failures.append(f"procs={procs}: workers {idle} ran no batch "
                            f"(per-worker batches "
                            f"{entry['batches_per_worker']})")
    hits = report["warm_worker"]["worker_artifact_hits"]
    if not any(hits.values()):
        failures.append("fresh workers recorded no warm-from-artifact hits")
    base = baseline["procs_sweep"]["1"]["requests_per_s"]
    current = report["procs_sweep"]["1"]["requests_per_s"]
    floor = base / factor
    if current < floor:
        failures.append(f"procs=1 throughput {current:.1f} req/s < "
                        f"{floor:.1f} (baseline {base:.1f} / {factor:g})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--json", type=Path, default=OUTPUT_PATH)
    parser.add_argument("--check", action="store_true",
                        help="fail on identity/zero-copy violations, an idle "
                             "worker, or a >2x procs=1 throughput regression "
                             "vs baseline")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    report = run(args.scale)
    print(json.dumps(report, indent=2))
    args.json.write_text(json.dumps(report, indent=2) + "\n")

    if args.write_baseline:
        args.baseline.write_text(json.dumps(report, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        return 0

    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; run --write-baseline",
                  file=sys.stderr)
            return 1
        failures = check_regressions(report,
                                     json.loads(args.baseline.read_text()))
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("no process-tier regressions vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
