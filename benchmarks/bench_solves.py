"""Thread-sweep solve benchmark: warm fp16-F3R solves across REPRO_THREADS.

Times warm, steady-state fp16-F3R solves on two problems —

* the HPCG 27-point **matrix-free stencil** at ``grid³`` (64³ at full
  scale), preconditioned with the Jacobi fallback, and
* a **mid-size assembled** 2-D Poisson system with block-IC(0)
  (``nblocks=16``, the paper's thread-per-block configuration),

at ``REPRO_THREADS`` in {1, 2, 4} (and the core count when larger),
verifies every thread count's result is **bit-identical** to the serial
solve, and writes ``BENCH_solves_threads.json``.  Absolute warm-solve
times are tracked by ``benchmarks/e2e``; this benchmark gates determinism
and the thread-speedup trend.

Not collected by pytest; run directly or via make:

    PYTHONPATH=src python benchmarks/bench_solves.py --scale smoke --check

``--check`` compares against the committed
``BENCH_solves_threads_baseline.json`` and fails on a >2x best-speedup
regression (baselines are machine-dependent — regenerate with
``--write-baseline`` on the target host; on a single-core host the sweep
still gates bit-identity while the speedups sit at ~1x), and
``--require-parallel-speedup X`` enforces the multicore acceptance floor
(≥1.5x warm-solve throughput at ≥4 threads) where the hardware can
express it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import par
from repro.core import F3RConfig, F3RSolver
from repro.matgen import hpcg_operator, poisson2d
from repro.plans import clear_plan_cache
from repro.plans.autotune import clear_autotune_cache

#: per-scale problem sizes: (stencil grid side, poisson grid side, repeats)
SCALES = {
    "smoke": {"stencil_grid": 24, "poisson_side": 120, "repeats": 2},
    "full": {"stencil_grid": 64, "poisson_side": 300, "repeats": 2},
}

#: blocks of the assembled problem's block-IC(0) preconditioner
NBLOCKS = 16

BASELINE_PATH = Path(__file__).parent / "BENCH_solves_threads_baseline.json"
OUTPUT_PATH = Path(__file__).parent / "BENCH_solves_threads.json"


def _steady_state_solve(solver, b, repeats: int):
    """Best warm-solve wall time (plans/arenas/casts warmed beforehand)."""
    solver.solve(b)
    solver.solve(b)
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = solver.solve(b)
        best = min(best, time.perf_counter() - start)
    return best, result


def _sweep_thread_counts() -> list[int]:
    counts = [1, 2, 4]
    cores = os.cpu_count() or 1
    if cores > 4:
        counts.append(cores)
    return counts


def bench_problem_threads(name: str, matrix, b, repeats: int,
                          **solver_kwargs) -> dict:
    """Warm fp16-F3R solve throughput across thread counts, bit-identity gated.

    Each thread count gets a fresh solver (the adaptive Richardson weights
    carry state across invocations) and a fresh plan/autotune cache so the
    per-budget thread verdicts are re-measured; results must be
    bit-identical to the 1-thread run — the determinism half of the
    multicore acceptance criterion.
    """
    rows = {}
    reference = None
    for threads in _sweep_thread_counts():
        clear_plan_cache()
        clear_autotune_cache()
        with par.use_threads(threads):
            config = F3RConfig(variant="fp16", backend="fast")
            solver = F3RSolver(matrix, preconditioner="auto", config=config,
                               **solver_kwargs)
            seconds, result = _steady_state_solve(solver, b, repeats)
        if reference is None:
            reference = result
        assert np.array_equal(result.x, reference.x), \
            f"{name}: REPRO_THREADS={threads} diverged from the serial solve"
        rows[str(threads)] = {
            "solve_s": seconds,
            "speedup_vs_1": round(rows["1"]["solve_s"] / seconds, 3)
            if rows else 1.0,
        }
    clear_plan_cache()
    clear_autotune_cache()
    return {"n": matrix.nrows, "threads": rows,
            "identical_results": True,
            "best_speedup": max(r["speedup_vs_1"] for r in rows.values())}


def run_threads_sweep(scale: str) -> dict:
    params = SCALES[scale]
    rng = np.random.default_rng(42)
    stencil = hpcg_operator(params["stencil_grid"])
    b1 = rng.uniform(-1.0, 1.0, stencil.nrows)
    assembled = poisson2d(params["poisson_side"])
    b2 = rng.uniform(-1.0, 1.0, assembled.nrows)
    problems = {
        f"f3r_stencil_{params['stencil_grid']}^3":
            bench_problem_threads("stencil", stencil, b1, params["repeats"]),
        f"f3r_assembled_poisson_{params['poisson_side']}^2":
            bench_problem_threads("assembled", assembled, b2,
                                  params["repeats"], nblocks=NBLOCKS),
    }
    return {"scale": scale, "nblocks": NBLOCKS, "cores": os.cpu_count(),
            "thread_counts": _sweep_thread_counts(), "problems": problems}


def check_thread_regressions(report: dict, baseline: dict,
                             factor: float = 2.0) -> list[str]:
    failures = []
    if baseline.get("scale") != report.get("scale"):
        return [f"threads baseline mismatch: scale={baseline.get('scale')!r} "
                f"vs current {report.get('scale')!r}; regenerate with "
                f"--write-baseline"]
    for name, base in baseline.get("problems", {}).items():
        current = report.get("problems", {}).get(name)
        if current is None:
            failures.append(f"{name}: missing from current run")
            continue
        if not current.get("identical_results"):
            failures.append(f"{name}: thread sweep results not bit-identical")
        floor = base["best_speedup"] / factor
        if current["best_speedup"] < floor:
            failures.append(f"{name}: best thread speedup "
                            f"{current['best_speedup']:.2f}x < {floor:.2f}x "
                            f"(baseline {base['best_speedup']:.2f}x / {factor:g})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--json", type=Path, default=OUTPUT_PATH)
    parser.add_argument("--check", action="store_true",
                        help="fail on >2x best-thread-speedup regression vs "
                             "the committed baseline")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--require-parallel-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless every problem reaches >= X best "
                             "thread speedup (multicore hardware only)")
    args = parser.parse_args(argv)

    report = run_threads_sweep(args.scale)
    print(f"thread-sweep solve benchmarks — scale={args.scale} "
          f"(fp16-F3R, fast backend, {report['cores']} cores, "
          f"warm plan cache; all results bit-identical)")
    for name, row in report["problems"].items():
        timings = "   ".join(
            f"T={t} {r['solve_s']:7.3f}s ({r['speedup_vs_1']:.2f}x)"
            for t, r in row["threads"].items())
        print(f"  {name:<32} {timings}")
    args.json.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.json}")
    if args.write_baseline:
        args.baseline.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote baseline {args.baseline}")
    status = 0
    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; run with "
                  "--write-baseline first", file=sys.stderr)
            return 2
        failures = check_thread_regressions(
            report, json.loads(args.baseline.read_text()))
        if failures:
            print("REGRESSIONS:\n  " + "\n  ".join(failures), file=sys.stderr)
            status = 1
        else:
            print("no thread-speedup regressions vs baseline")
    if args.require_parallel_speedup is not None:
        for name, row in report["problems"].items():
            if row["best_speedup"] < args.require_parallel_speedup:
                print(f"REQUIREMENT FAILED: {name} best thread speedup "
                      f"{row['best_speedup']:.2f}x < "
                      f"{args.require_parallel_speedup:g}x", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
