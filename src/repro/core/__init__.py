"""Core contribution: the F3R solver, its variants, configuration, and cost models."""

from .config import DEFAULT_FP16, DEFAULT_FP32, DEFAULT_FP64, F3RConfig, precision_schedule
from .f3r import F3RSolver, build_f3r, solve_f3r
from .recovery import (
    AttemptRecord,
    RecoveryPolicy,
    SolveReport,
    degraded_variant,
    recovery_enabled,
    set_recovery_enabled,
    use_recovery,
)
from .variants import VARIANT_SPECS, build_variant, variant_description, variant_names
from .cost_model import (
    CostModel,
    cost_fgmres,
    cost_nested_ff,
    cost_nested_fr,
    cost_richardson,
    nesting_benefit,
    operator_traffic_constant,
    optimal_split,
    preconditioner_constant,
    traffic_constant,
)
from .nesting_search import TuneResult, default_candidates, tune_f3r

__all__ = [
    "F3RConfig",
    "precision_schedule",
    "DEFAULT_FP16",
    "DEFAULT_FP32",
    "DEFAULT_FP64",
    "F3RSolver",
    "build_f3r",
    "solve_f3r",
    "AttemptRecord",
    "RecoveryPolicy",
    "SolveReport",
    "degraded_variant",
    "recovery_enabled",
    "set_recovery_enabled",
    "use_recovery",
    "VARIANT_SPECS",
    "build_variant",
    "variant_description",
    "variant_names",
    "CostModel",
    "cost_fgmres",
    "cost_richardson",
    "cost_nested_ff",
    "cost_nested_fr",
    "nesting_benefit",
    "optimal_split",
    "traffic_constant",
    "operator_traffic_constant",
    "preconditioner_constant",
    "TuneResult",
    "default_candidates",
    "tune_f3r",
]
