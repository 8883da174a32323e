"""Iterative solvers: FGMRES, Richardson, CG, BiCGStab, and nested composition."""

from .base import (
    BatchSolveResult,
    ConvergenceHistory,
    InnerSolver,
    SolveResult,
    count_primary_applications,
    reset_primary_counter,
)
from .guards import (
    InvalidInput,
    SolveBreakdown,
    SolveEvent,
    SolveStagnation,
    StagnationWindow,
    classify_breakdown,
    guards_enabled,
    set_guards_enabled,
    use_guards,
    validate_rhs,
)
from .richardson import RichardsonLevel, richardson_solve
from .fgmres import FGMRESLevel, OuterFGMRES, fgmres_cycle_batch
from .gmres import RestartedFGMRES
from .cg import ConjugateGradient
from .bicgstab import BiCGStab
from .nested import LevelSpec, NestedSolverBuilder, build_nested_solver, tuple_notation

__all__ = [
    "BatchSolveResult",
    "ConvergenceHistory",
    "InvalidInput",
    "SolveBreakdown",
    "SolveEvent",
    "SolveStagnation",
    "StagnationWindow",
    "classify_breakdown",
    "guards_enabled",
    "set_guards_enabled",
    "use_guards",
    "validate_rhs",
    "InnerSolver",
    "SolveResult",
    "count_primary_applications",
    "reset_primary_counter",
    "RichardsonLevel",
    "richardson_solve",
    "FGMRESLevel",
    "OuterFGMRES",
    "fgmres_cycle_batch",
    "RestartedFGMRES",
    "ConjugateGradient",
    "BiCGStab",
    "LevelSpec",
    "NestedSolverBuilder",
    "build_nested_solver",
    "tuple_notation",
]
