"""Compiled solve plans: pre-bound kernels, measured autotuning, arenas.

The solver stack's steady-state loop used to pay pure overhead on every
iteration — operator dispatch, storage-format lookups, workspace-key
rebuilding, fresh temporaries.  This package compiles that work away once
per ``(operator fingerprint, backend, vector precision)``:

* :class:`SolvePlan` / :func:`plan_for` — the compiled plan and its
  fingerprint-keyed LRU cache (see :mod:`repro.plans.plan`);
* :mod:`repro.plans.autotune` — measured CSR-vs-sliced-ELL selection with
  in-process + optional on-disk (``REPRO_TUNE_CACHE``) verdict caching,
  falling back to the analytic cost model when disabled (``REPRO_TUNE=0``).

Plans are the only execution path: every solver level and Krylov baseline
runs its operator products through one, and the ``reference`` backend is
the oracle their kernels are checked against.

A future GPU backend compiles against exactly this surface: implement the
fused kernels (`spmv_axpy`, `residual_update`, `orthonormalize`,
`weighted_update`) and every plan-threaded solver level runs on it.
"""

from .autotune import (
    autotune_stats,
    clear_autotune_cache,
    measured_assembled_format,
    measurement_suppressed,
    set_measurement_suppressed,
    set_tuning_enabled,
    tuning_enabled,
)
from .plan import (
    SolvePlan,
    clear_plan_cache,
    compile_plan,
    drop_plans_for,
    plan_cache_stats,
    plan_for,
    plans_enabled,
)

__all__ = [
    "SolvePlan",
    "compile_plan",
    "plan_for",
    "plans_enabled",
    "plan_cache_stats",
    "clear_plan_cache",
    "drop_plans_for",
    "tuning_enabled",
    "set_tuning_enabled",
    "measured_assembled_format",
    "autotune_stats",
    "clear_autotune_cache",
    "measurement_suppressed",
    "set_measurement_suppressed",
]
