"""Robust serving: guards, the recovery ladder, and fault injection.

Walks the robustness stack end to end:

1. **Guards** — a poisoned kernel output becomes a structured
   ``SolveBreakdown`` instead of silent NaN garbage.
2. **Recovery ladder** — ``F3RSolver`` catches the event and climbs
   restart → fp32 → fp64 → rebuilt preconditioner, reporting every attempt
   in ``result.recovery``.
3. **Hardened dispatcher** — a 30-request serving run under injected kernel
   corruption, worker deaths, and latency completes every request, with the
   recovery machinery visible in ``stats.summary()``.

All failures here are manufactured by ``repro.faults``: a seeded
``FaultPlan`` fires at deterministic ``(site, call-count)`` coordinates, so
every run of this script observes the same faults.

Run with:  PYTHONPATH=src python examples/robust_serving.py
"""

import warnings

import numpy as np

from repro import BatchDispatcher, F3RConfig, F3RSolver, SolveEvent
from repro.faults import FaultPlan, inject
from repro.matgen import hpcg_matrix, poisson2d
from repro.sparse import diagonal_scaling


def guards_catch_corruption() -> None:
    print("=== 1. guards: corruption becomes a structured event ===")
    matrix = poisson2d(24)
    rhs = np.random.default_rng(0).uniform(-1.0, 1.0, matrix.nrows)
    # recovery=False: propagate the raw event so we can look at it
    solver = F3RSolver(matrix, preconditioner="auto", nblocks=8,
                      config=F3RConfig(variant="fp16"), recovery=False)
    plan = FaultPlan(seed=5, rate=1.0, sites=("spmv",), kinds=("nan",),
                     max_faults=1)
    with inject(plan):
        try:
            solver.solve(rhs)
        except SolveEvent as event:
            print(f"  caught {type(event).__name__}: {event}")
            print(f"  site={event.site} value={event.value}")
    print(f"  faults fired: {[r.summary() for r in plan.records]}")
    print()


def ladder_recovers() -> None:
    print("=== 2. recovery ladder: restart, escalate, report ===")
    matrix = poisson2d(24)
    rhs = np.random.default_rng(1).uniform(-1.0, 1.0, matrix.nrows)
    solver = F3RSolver(matrix, preconditioner="auto", nblocks=8,
                      config=F3RConfig(variant="fp16"))
    # two faults: the initial attempt and the restart both get poisoned,
    # so the ladder must escalate fp16 -> fp32
    plan = FaultPlan(seed=5, rate=1.0, sites=("spmv",), kinds=("nan",),
                     max_faults=2)
    with inject(plan):
        result = solver.solve(rhs)
    print(f"  converged={result.converged}  relres={result.relative_residual:.2e}")
    for attempt in result.recovery.attempts:
        event = attempt.event["site"] if attempt.event else "-"
        print(f"  {attempt.stage:<16} variant={attempt.variant:<5} "
              f"converged={attempt.converged!s:<5} event={event}")
    print()


def hardened_dispatcher_survives() -> None:
    print("=== 3. dispatcher: 30 requests under injected chaos ===")
    matrices = [diagonal_scaling(hpcg_matrix(8))[0], poisson2d(16)]
    plan = FaultPlan(seed=11, rate=0.004, sites=("spmv", "trsv"),
                     kinds=("nan", "inf"), worker_rate=0.15,
                     latency=0.002, latency_rate=0.3, max_faults=4)
    rng = np.random.default_rng(17)
    with inject(plan):
        with BatchDispatcher(F3RConfig(variant="fp16", m1=10), nblocks=4,
                             max_batch=4, max_workers=3,
                             max_retries=3) as dispatcher:
            futures = []
            for i in range(30):
                matrix = matrices[i % 2]
                futures.append(dispatcher.submit(
                    matrix, rng.uniform(-1.0, 1.0, matrix.nrows)))
            dispatcher.drain()
            results = [future.result(timeout=120) for future in futures]

    converged = sum(r.converged for r in results)
    recovered = sum(r.recovery is not None for r in results)
    print(f"  requests: {len(results)}  converged: {converged}  "
          f"with recovery report: {recovered}")
    print(f"  faults fired: {plan.summary()}")
    summary = dispatcher.stats.summary()["recovery"]
    print(f"  dispatcher recovery counters: {summary}")
    print()


def main() -> None:
    # injected NaN/Inf propagate through numpy kernels until a guard catches
    # them; the propagation warnings are the expected noise of the exercise
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    guards_catch_corruption()
    ladder_recovers()
    hardened_dispatcher_survives()


if __name__ == "__main__":
    main()
