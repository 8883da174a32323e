"""Compiled solve plans: setup once, iterate free.

A :class:`SolvePlan` binds, once per ``(operator fingerprint, backend,
vector precision)``, everything the iteration hot loop used to re-derive on
every call:

* the **resolved storage and kernel** — the CSR arrays / sliced-ELL plan /
  matrix-free stencil the applies actually run on, chosen by the *measured*
  autotuner (:mod:`repro.plans.autotune`) with the analytic cost model as
  the fallback, and the backend kernel bound directly (no per-call operator
  dispatch, format lookup or argument validation);
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


def _storage_config(operator) -> tuple:
    """Storage-affecting operator config that the content hash does not cover.

    An ``AssembledOperator``'s fingerprint is its matrix's content hash —
    ``format=``/``chunk_size=`` pins change which storage (and therefore
    which counters and fp16 summation structure) a plan binds, so they must
    be part of the cache key.
    """
    fmt = getattr(operator, "format", None)
    chunk = getattr(operator, "chunk_size", None)
    return (fmt, int(chunk) if chunk is not None else None)


def _cached_csr_partition(matrix, nparts: int) -> list[tuple]:
    """``csr_partition`` with persisted boundaries (:mod:`repro.cache`).

    The slab tuples rebuild from the boundary array alone, so only the
    boundaries hit disk; an unusable payload falls back to recomputing the
    balance exactly as before.
    """
    from ..cache import (artifact_key, artifacts_enabled, load_arrays,
                         store_arrays)
    from ..par import balanced_boundaries, csr_slabs_from_boundaries

    if not artifacts_enabled():
        from ..par import csr_partition
        return csr_partition(matrix.indptr, nparts)

    key = artifact_key("partition", matrix.fingerprint(), "csr", int(nparts))
    cached = load_arrays("partition", key)
    if cached is not None:
        try:
            boundaries = np.ascontiguousarray(cached["boundaries"],
                                              dtype=np.int64)
            n = matrix.indptr.size - 1
            if (boundaries.ndim == 1 and boundaries.size >= 2
                    and boundaries[0] == 0 and boundaries[-1] == n
                    and np.all(np.diff(boundaries) > 0)):
                return csr_slabs_from_boundaries(matrix.indptr, boundaries)
        except Exception:
            pass

    from time import perf_counter
    start = perf_counter()
    boundaries = balanced_boundaries(
        np.asarray(matrix.indptr, dtype=np.int64), nparts)
    slabs = csr_slabs_from_boundaries(matrix.indptr, boundaries)
    cost_ms = (perf_counter() - start) * 1e3
    store_arrays("partition", key, {"boundaries": boundaries},
                 cost_ms=cost_ms)
    return slabs


class SolvePlan:
    """Pre-bound apply/residual kernels for one operator on one backend.

    Every method mirrors the operator's own ``apply``/``apply_batch``
    exactly — the same backend kernels run on the same resolved storage with
    the same counter totals — minus the per-call dispatch, validation and
    format lookups.  ``record=False`` skips traffic recording (the outer solver's
    unrecorded true-residual refreshes).
    """

    __slots__ = ("operator", "vec_prec", "backend", "kind", "par",
                 "threads", "_csr", "_ell", "_stencil", "_tls")

    def __init__(self, operator, vec_prec: Precision | str, backend=None) -> None:
        from ..operators.assembled import AssembledOperator
        from ..operators.stencil import StencilOperator
        from ..sparse.csr import CSRMatrix
        from ..sparse.ell import SlicedEllMatrix

        self.operator = operator
        self.vec_prec = as_precision(vec_prec)
        self.backend = backend if backend is not None else get_backend()
        self._csr = self._ell = self._stencil = None
        self._tls = ThreadLocalWorkspace()

        storage = operator
        if isinstance(operator, AssembledOperator):
            # resolves the format under *this* backend: measured verdict
            # first (repro.plans.autotune), analytic cost model otherwise
            storage = operator.storage_for(self.backend)
        if isinstance(storage, CSRMatrix):
            self.kind = "csr"
            self._csr = storage
        elif isinstance(storage, SlicedEllMatrix):
            self.kind = "ell"
            self._ell = storage
        elif isinstance(storage, StencilOperator):
            self.kind = "stencil"
            self._stencil = storage
        else:
            self.kind = "operator"

        # Parallel execution state: the resolved storage's partition cache +
        # autotuned per-kernel thread verdicts.  When a thread budget is
        # configured (REPRO_THREADS > 1), plan compile measures the apply at
        # 1, 2, 4, … threads and pins the fastest count — so small operators
        # stay serial and the solve hot loop never partitions or re-decides.
        self.par = None
        self.threads = None
        storage_obj = self._csr or self._ell or self._stencil
        if storage_obj is not None:
            from ..par import configured_threads, par_state
            from .autotune import measured_plan_threads

            self.par = par_state(storage_obj)
            if configured_threads() > 1:
                self.threads = measured_plan_threads(self)
                if (self.threads is not None and self.threads > 1
                        and self._csr is not None):
                    # prebuild the slab partition a cache-hit verdict skips;
                    # with REPRO_ARTIFACTS set, persisted boundaries replace
                    # the balance computation across restarts
                    m = self._csr
                    self.par.partition(
                        ("csr", self.threads),
                        lambda: _cached_csr_partition(m, self.threads))

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        return self.operator.shape

    def workspace(self):
        """The calling thread's plan-scoped scratch arena."""
        return self._tls.workspace

    # ------------------------------------------------------------------ #
    def apply(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        """``y = A·x`` rounded to the plan's vector precision."""
        kind = self.kind
        if kind == "csr":
            m = self._csr
            return self.backend.spmv_csr(m.values, m.indices, m.indptr, x,
                                         out_precision=self.vec_prec,
                                         record=record, scratch=m.scratch(),
                                         par=self.par)
        if kind == "ell":
            return self.backend.spmv_ell(self._ell, x,
                                         out_precision=self.vec_prec,
                                         record=record)
        if kind == "stencil":
            return self.backend.apply_stencil(self._stencil, x,
                                              out_precision=self.vec_prec,
                                              record=record)
        return self.operator.apply(x, out_precision=self.vec_prec,
                                   record=record)

    def apply_batch(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        """``Y = A·X`` for one RHS per column."""
        kind = self.kind
        if kind == "csr":
            m = self._csr
            return self.backend.spmm_csr(m.values, m.indices, m.indptr, x,
                                         out_precision=self.vec_prec,
                                         record=record, scratch=m.scratch(),
                                         par=self.par)
        if kind == "ell":
            return self.backend.spmm_ell(self._ell, x,
                                         out_precision=self.vec_prec,
                                         record=record)
        if kind == "stencil":
            return self.backend.apply_stencil_batch(self._stencil, x,
                                                    out_precision=self.vec_prec,
                                                    record=record)
        return self.operator.apply_batch(x, out_precision=self.vec_prec,
                                         record=record)

    # ------------------------------------------------------------------ #
    def residual(self, v: np.ndarray, x: np.ndarray,
                 record: bool = True) -> np.ndarray:
        """Fused residual update ``r = v − A·x``.

        CSR storage runs the one-pass ``spmv_axpy`` kernel; other storages
        compose the bound apply with the backend's ``residual_update`` —
        either way the rounding chain and counters match the unfused
        apply-then-axpy sequence.
        """
        if self.kind == "csr":
            m = self._csr
            return self.backend.spmv_axpy(m.values, m.indices, m.indptr, x, v,
                                          out_precision=self.vec_prec,
                                          record=record, scratch=m.scratch(),
                                          par=self.par)
        az = self.apply(x, record=record)
        return self.backend.residual_update(v, az, out_precision=self.vec_prec,
                                            record=record,
                                            scratch=self.workspace())

    def residual_batch(self, v: np.ndarray, x: np.ndarray,
                       record: bool = True) -> np.ndarray:
        """Batched fused residual ``R = V − A·X``."""
        if self.kind == "csr":
            m = self._csr
            return self.backend.spmm_axpy(m.values, m.indices, m.indptr, x, v,
                                          out_precision=self.vec_prec,
                                          record=record, scratch=m.scratch(),
                                          par=self.par)
        az = self.apply_batch(x, record=record)
        return self.backend.residual_update_batch(
            v, az, out_precision=self.vec_prec, record=record,
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
    plan, including its autotuned format verdict.  The backend part of the
    key is the backend object itself, so a fault-injection proxy and the
    engine it wraps never share a plan.
    """
    backend = backend if backend is not None else get_backend()
    fingerprint = getattr(operator, "fingerprint", None)
    if fingerprint is None:
        # structural duck types without a content hash still get a plan —
        # callers (solver levels) cache it per instance instead
        return compile_plan(operator, vec_prec, backend=backend)
    key = (fingerprint(), _storage_config(operator), backend,
           as_precision(vec_prec).label)
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


def drop_plans_for(fingerprint: str) -> int:
    """Drop every cached plan compiled for one operator fingerprint.

    Compiled plans pre-bind the operator's storage arrays; when that storage
    is a shared-memory view (the process tier), the mapping cannot close
    while a cached plan pins it.  Eviction paths call this before releasing
    the segment.  Returns the number of plans dropped.
    """
    with _CACHE_LOCK:
        doomed = [key for key in _PLAN_CACHE if key[0] == fingerprint]
        for key in doomed:
            del _PLAN_CACHE[key]
    return len(doomed)


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (tests)."""
    with _CACHE_LOCK:
        _PLAN_CACHE.clear()
        for k in _STATS:
            _STATS[k] = 0
