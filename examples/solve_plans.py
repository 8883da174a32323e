"""Solve plans and measured autotuning.

The plan layer (``repro.plans``) compiles, once per
``(operator fingerprint, backend, vector precision)``, everything the
iteration hot loop used to re-derive per call: the resolved storage format
(picked by *measured* autotuning), pre-bound fused kernels and a pre-sized
workspace arena.  Solvers always run through it — this example just makes
the machinery visible: the plan cache, the autotune verdicts, and the cost
of the first (compiling) solve against a warm steady-state one.

Run from the repository root:

    PYTHONPATH=src python examples/solve_plans.py
"""

import time

import numpy as np

from repro import F3RConfig, F3RSolver, plan_cache_stats, plan_for
from repro.matgen import hpcg_operator
from repro.plans import autotune_stats
from repro.precision import Precision


def main() -> None:
    op = hpcg_operator(32)                 # matrix-free HPCG 27-point, 32^3
    rng = np.random.default_rng(0)
    b = rng.uniform(-1.0, 1.0, op.nrows)
    config = F3RConfig(variant="fp16", backend="fast")

    # -- plans compile lazily on first use and are content-cached ---------- #
    plan = plan_for(op, Precision.FP64)
    print(f"compiled {plan}")
    print(f"plan cache: {plan_cache_stats()}")

    # -- first solve (plans compile, arenas size) vs warm steady state ---- #
    solver = F3RSolver(op, preconditioner="auto", config=config)
    timings = []
    for _ in range(2):
        start = time.perf_counter()
        result = solver.solve(b)
        timings.append(time.perf_counter() - start)
    first_s, warm_s = timings

    print(f"\nfp16-F3R solve at 32^3 (matrix-free):")
    print(f"  first solve (compiles plans): {first_s * 1e3:8.1f} ms")
    print(f"  warm steady state:            {warm_s * 1e3:8.1f} ms")
    print(f"  converged: {result.converged}  "
          f"relres={result.relative_residual:.2e}")
    print(f"\nplan cache after solving: {plan_cache_stats()}")
    print(f"autotuner: {autotune_stats()}   "
          "(point REPRO_TUNE_CACHE at a JSON file to persist verdicts)")


if __name__ == "__main__":
    main()
