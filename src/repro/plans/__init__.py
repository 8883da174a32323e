"""Compiled solve plans: pre-bound kernels, fused kernels, arenas.

The solver stack's steady-state loop used to pay pure overhead on every
iteration — operator dispatch, storage lookups, workspace-key rebuilding,
fresh temporaries.  This package compiles that work away once per
``(operator fingerprint, backend, vector precision)``.
:class:`SolvePlan` / :func:`plan_for` are the compiled plan and its
fingerprint-keyed LRU cache (see :mod:`repro.plans.plan`).  An assembled
operator's plan runs its CSR arrays on every engine.

Plans are the only execution path: every solver level and Krylov baseline
runs its operator products through one, and the ``reference`` backend is
the oracle their kernels are checked against.

A future GPU backend compiles against exactly this surface: implement the
fused kernels (`spmv_axpy`, `residual_update`, `orthonormalize`,
`weighted_update`) and every plan-threaded solver level runs on it.
"""

from .plan import (
    SolvePlan,
    clear_plan_cache,
    compile_plan,
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
]
