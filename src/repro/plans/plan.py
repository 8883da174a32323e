"""Compiled solve plans: setup once, iterate free.

A :class:`SolvePlan` binds, once per ``(operator fingerprint, backend,
vector precision)``, everything the iteration hot loop used to re-derive on
every call:

* the **resolved storage and kernel** — the CSR arrays or matrix-free
  stencil the applies actually run on, and the backend kernel bound
  directly (no per-call operator dispatch or argument validation);
* **fused kernels** — ``residual`` runs the one-pass ``spmv_axpy`` for CSR
  storage and the ``apply`` + ``residual_update`` pair elsewhere, with the
  exact unfused rounding/counter semantics;
* a **workspace arena** — per-thread scratch the staged fp16 paths and
  fused updates reuse, so steady-state iterations stop allocating.

Plans are immutable once compiled and safe to share across threads (all
mutable scratch is thread-local).  The module-level cache
(:func:`plan_for`) is keyed by content fingerprint, so repeated-fingerprint
traffic — the :class:`~repro.serve.BatchDispatcher`'s common case — skips
plan setup entirely, even across solver instances.

Plans are the solver stack's only execution path: every level, Krylov
baseline and fused kernel runs through one.  Plans key on the backend
*object*, so the fault-injection proxy (one stable
:class:`~repro.faults.FaultyBackend` per engine while a fault plan is
installed) compiles its own plans and sees every kernel call, while a
fault-free solve keeps hitting the plans bound to the bare engine.  The
``reference`` backend is the correctness oracle the planned kernels are
swept against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..backends import get_backend
from ..backends.workspace import ThreadLocalWorkspace
from ..precision import Precision, as_precision

__all__ = [
    "SolvePlan",
    "compile_plan",
    "plan_for",
    "plans_enabled",
    "plan_cache_stats",
    "clear_plan_cache",
]


def plans_enabled() -> bool:
    """Always ``True``: solve plans are the only execution path.

    Kept as a read-only probe for callers that record the resolved
    configuration.
    """
    return True


class SolvePlan:
    """Pre-bound apply/residual kernels for one operator on one backend.

    Every method mirrors the operator's own ``apply``/``apply_batch``
    exactly — the same backend kernels run on the same resolved storage with
    the same counter totals — minus the per-call dispatch and validation.
    ``record=False`` skips traffic recording (the outer solver's unrecorded
    true-residual refreshes).
    """

    __slots__ = ("operator", "vec_prec", "backend", "kind", "_csr", "_stencil",
                 "_tls")

    def __init__(self, operator, vec_prec: Precision | str, backend=None) -> None:
        from ..operators.assembled import AssembledOperator
        from ..operators.stencil import StencilOperator
        from ..sparse.csr import CSRMatrix

        self.operator = operator
        self.vec_prec = as_precision(vec_prec)
        self.backend = backend if backend is not None else get_backend()
        self._csr = self._stencil = None
        self._tls = ThreadLocalWorkspace()

        storage = operator.csr if isinstance(operator, AssembledOperator) else operator
        if isinstance(storage, CSRMatrix):
            self.kind = "csr"
            self._csr = storage
        elif isinstance(storage, StencilOperator):
            self.kind = "stencil"
            self._stencil = storage
        else:
            self.kind = "operator"

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        return self.operator.shape

    @property
    def storage(self):
        """What the applies run on: the CSR matrix, the stencil, or (kind
        ``"operator"``) the operator itself."""
        return {"csr": self._csr, "stencil": self._stencil}.get(self.kind,
                                                                self.operator)

    def workspace(self):
        """The calling thread's plan-scoped scratch arena."""
        return self._tls.workspace

    # ------------------------------------------------------------------ #
    def apply(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        """``y = A·x`` rounded to the plan's vector precision.

        ``x`` is a vector or an ``(n, k)`` block with one right-hand side
        per column.  A one-column block runs as a vector: the block kernels
        cost more than the vector ones at ``k = 1``.
        """
        if x.ndim == 2 and x.shape[1] == 1:
            return self._product(x[:, 0], record)[:, None]
        return self._product(x, record)

    apply_batch = apply

    def _product(self, x: np.ndarray, record: bool) -> np.ndarray:
        kind = self.kind
        if kind == "csr":
            m = self._csr
            return self.backend.spmv_csr(m.values, m.indices, m.indptr, x,
                                         out_precision=self.vec_prec,
                                         record=record, scratch=m.scratch())
        if kind == "stencil":
            return self.backend.apply_stencil(self._stencil, x,
                                              out_precision=self.vec_prec,
                                              record=record)
        apply = self.operator.apply if x.ndim == 1 else self.operator.apply_batch
        return apply(x, out_precision=self.vec_prec, record=record)

    # ------------------------------------------------------------------ #
    def residual(self, v: np.ndarray, x: np.ndarray,
                 record: bool = True) -> np.ndarray:
        """Fused residual update ``r = v − A·x`` (vectors or ``(n, k)``
        blocks; a one-column block runs as vectors, as in :meth:`apply`).

        CSR storage runs the one-pass ``spmv_axpy`` kernel; other storages
        compose the bound product with the backend's ``residual_update`` —
        either way the rounding chain and counters match the unfused
        apply-then-axpy sequence.
        """
        if x.ndim == 2 and x.shape[1] == 1:
            return self._residual(v[:, 0], x[:, 0], record)[:, None]
        return self._residual(v, x, record)

    residual_batch = residual

    def _residual(self, v: np.ndarray, x: np.ndarray, record: bool) -> np.ndarray:
        if self.kind == "csr":
            m = self._csr
            return self.backend.spmv_axpy(m.values, m.indices, m.indptr, x, v,
                                          out_precision=self.vec_prec,
                                          record=record, scratch=m.scratch())
        az = self._product(x, record)
        return self.backend.residual_update(v, az, out_precision=self.vec_prec,
                                            record=record,
                                            scratch=self.workspace())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SolvePlan(kind={self.kind!r}, backend={self.backend.name!r}, "
                f"vec={self.vec_prec.label}, shape={self.shape})")


# ---------------------------------------------------------------------- #
# Module-level plan cache (fingerprint-keyed LRU)
# ---------------------------------------------------------------------- #
_CACHE_SIZE = 64
_CACHE_LOCK = threading.Lock()
_PLAN_CACHE: OrderedDict[tuple, SolvePlan] = OrderedDict()
_STATS = {"compiled": 0, "hits": 0, "misses": 0}


def compile_plan(operator, vec_prec: Precision | str, backend=None) -> SolvePlan:
    """Compile a fresh (uncached) plan; :func:`plan_for` is the cached entry."""
    plan = SolvePlan(operator, vec_prec, backend=backend)
    with _CACHE_LOCK:
        _STATS["compiled"] += 1
    return plan


def plan_for(operator, vec_prec: Precision | str, backend=None) -> SolvePlan:
    """The cached plan for ``(operator.fingerprint(), backend, vec_prec)``.

    Content-keyed: equal-valued operators held by different callers — and
    new solver instances for a previously seen matrix — share one compiled
    plan.  The backend part of the
    key is the backend object itself, so a fault-injection proxy and the
    engine it wraps never share a plan.
    """
    backend = backend if backend is not None else get_backend()
    fingerprint = getattr(operator, "fingerprint", None)
    if fingerprint is None:
        # structural duck types without a content hash still get a plan —
        # callers (solver levels) cache it per instance instead
        return compile_plan(operator, vec_prec, backend=backend)
    key = (fingerprint(), backend, as_precision(vec_prec).label)
    with _CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            _STATS["hits"] += 1
            return plan
        _STATS["misses"] += 1
    plan = compile_plan(operator, vec_prec, backend=backend)
    with _CACHE_LOCK:
        _PLAN_CACHE[key] = plan
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _CACHE_SIZE:
            _PLAN_CACHE.popitem(last=False)
    return plan


def plan_cache_stats() -> dict:
    """Hit/miss/compile counters plus the current cache size."""
    with _CACHE_LOCK:
        return dict(_STATS, cached=len(_PLAN_CACHE))


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (tests)."""
    with _CACHE_LOCK:
        _PLAN_CACHE.clear()
        for k in _STATS:
            _STATS[k] = 0
