"""repro — reproduction of "A Nested Krylov Method Using Half-Precision Arithmetic".

The package implements the paper's F3R solver (nested FGMRES + Richardson with
an fp64 → fp32 → fp16 precision schedule and adaptive Richardson weights), the
substrates it depends on (mixed-precision sparse kernels, ILU(0)/IC(0),
block-Jacobi, SD-AINV, HPCG/HPGMP matrix generators), the conventional
baselines it is compared against (CG, BiCGStab, restarted FGMRES), and the
experiment harness that regenerates every table and figure of the paper.

Quickstart::

    import numpy as np
    from repro import F3RSolver, F3RConfig
    from repro.matgen import hpcg_matrix
    from repro.sparse import diagonal_scaling

    A, _ = diagonal_scaling(hpcg_matrix(16))
    b = np.random.default_rng(0).random(A.nrows)
    result = F3RSolver(A, preconditioner="auto", config=F3RConfig(variant="fp16")).solve(b)
    print(result.converged, result.preconditioner_applications)
"""

from .backends import (
    active_backend,
    available_backends,
    register_backend,
    set_backend,
    use_backend,
)
from .core import (
    F3RConfig,
    F3RSolver,
    RecoveryPolicy,
    SolveReport,
    build_f3r,
    build_variant,
    recovery_enabled,
    set_recovery_enabled,
    solve_f3r,
    tune_f3r,
    use_recovery,
)
from .operators import (
    AssembledOperator,
    LinearOperator,
    ScaledOperator,
    ShiftedOperator,
    StencilOperator,
    as_operator,
)
from .plans import SolvePlan, plan_cache_stats, plan_for
from .precision import Precision
from .precond import make_primary_preconditioner
from .serve import (
    AdmissionRefused,
    BatchDispatcher,
    BrownoutConfig,
    BrownoutController,
    BrownoutTransition,
    CircuitOpen,
    ClusterConfig,
    ClusterGateway,
    DeadlineExceeded,
    DispatcherClosed,
    LoadShed,
    RemoteShard,
    ShardServer,
    ShardUnreachable,
    overload_enabled,
    render_metrics,
)
from .solvers import (
    BatchSolveResult,
    BiCGStab,
    ConjugateGradient,
    InvalidInput,
    LevelSpec,
    RestartedFGMRES,
    SolveBreakdown,
    SolveEvent,
    SolveResult,
    SolveStagnation,
    build_nested_solver,
    guards_enabled,
    set_guards_enabled,
    use_guards,
)
from .sparse import CSRMatrix

__version__ = "1.0.0"

# Opt-in fault injection: importing repro.faults installs the env-configured
# plan; without REPRO_FAULTS the subsystem is never imported from here.
if __import__("os").environ.get("REPRO_FAULTS", "").strip():
    from . import faults  # noqa: F401


def configured_threads() -> int:
    """Always ``1``: kernels run serially.  Kept only because
    ``benchmarks/e2e/workloads.py::_environment`` records it; it goes at the
    next change to the benchmark."""
    return 1


def configured_procs() -> int:
    """Always ``1``: the process tier is retired.  Kept only because
    ``benchmarks/e2e/workloads.py::_environment`` records it; it goes at the
    next change to the benchmark."""
    return 1


__all__ = [
    "configured_procs",
    "configured_threads",
    "F3RConfig",
    "F3RSolver",
    "build_f3r",
    "solve_f3r",
    "build_variant",
    "tune_f3r",
    "Precision",
    "make_primary_preconditioner",
    "BiCGStab",
    "ConjugateGradient",
    "RestartedFGMRES",
    "LevelSpec",
    "build_nested_solver",
    "SolveResult",
    "BatchSolveResult",
    "BatchDispatcher",
    "ClusterGateway",
    "ClusterConfig",
    "RemoteShard",
    "ShardServer",
    "ShardUnreachable",
    "DispatcherClosed",
    "DeadlineExceeded",
    "AdmissionRefused",
    "LoadShed",
    "CircuitOpen",
    "BrownoutConfig",
    "BrownoutController",
    "BrownoutTransition",
    "overload_enabled",
    "render_metrics",
    "SolveEvent",
    "SolveBreakdown",
    "SolveStagnation",
    "InvalidInput",
    "guards_enabled",
    "set_guards_enabled",
    "use_guards",
    "RecoveryPolicy",
    "SolveReport",
    "recovery_enabled",
    "set_recovery_enabled",
    "use_recovery",
    "CSRMatrix",
    "LinearOperator",
    "AssembledOperator",
    "StencilOperator",
    "ShiftedOperator",
    "ScaledOperator",
    "as_operator",
    "active_backend",
    "available_backends",
    "register_backend",
    "set_backend",
    "use_backend",
    "__version__",
]
