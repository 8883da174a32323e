"""Richardson iteration with adaptive weight updating (Algorithm 1 of the paper).

The innermost level of F3R is a preconditioned Richardson solver:

    z_k = z_{k-1} + ω M (v − A z_{k-1}),   k = 1..m4,  z_0 = 0.

Because Richardson is a stationary method its convergence hinges on the weight
ω.  The paper's Algorithm 1 keeps one weight ω_k per inner iteration, shared
**globally across all invocations** of the Richardson level, and refreshes the
weights every ``c`` invocations using the locally optimal value

    ω'_k = (r_{k-1}, A M r_{k-1}) / (A M r_{k-1}, A M r_{k-1}),

blended by a cumulative average (Eq. 5).  On refresh invocations ω'_k itself is
used for the update (it minimizes that step's residual); on the other
invocations the blended ω_k is used and no extra SpMV/dots are needed.

Precision: the Richardson recurrence runs entirely in the level's precision
(fp16 in F3R) but the ω'_k computation is carried out in fp32, exactly as
stated in Section 4.3 of the paper.

An invocation that does not refresh the weights may run as one compiled call
of the kernel engine (``backend.richardson_sweep``: ``native``'s, for CSR
products and ILU(0)/IC(0)-type preconditioners in uniform fp16, fp32 or
fp64 — F3R's level and the fp32 and fp64 variants'), with the loop's bits.
The loop owns what an invocation records: the first one of a block shape
runs it measured, and the sweep replays that record and that count of ``M``
applications.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..backends.workspace import ThreadLocalWorkspace
from ..operators import as_operator
from ..perf.counters import Traffic, measuring
from ..perf.counters import record as record_traffic
from ..plans import plan_for
from ..precision import LevelPrecision, Precision, as_precision
from ..sparse import vectorops as vo
from .base import InnerSolver
from .guards import check_finite, guards_enabled

__all__ = ["RichardsonLevel", "richardson_solve"]

#: a block shape no invocation has asked the engine about yet
_UNBOUND = object()


class RichardsonLevel(InnerSolver):
    """The paper's Algorithm 1 as a reusable inner-solver level.

    Parameters
    ----------
    matrix:
        Coefficient operator (any :class:`~repro.operators.LinearOperator`
        or a raw :class:`~repro.sparse.CSRMatrix`) stored at the level's
        matrix precision (fp16 in F3R's default configuration); only
        ``apply``/``apply_batch`` are used.
    preconditioner:
        The primary preconditioner ``M`` (values typically stored in fp16).
    m:
        Number of Richardson iterations per invocation (``m4``; default 2).
    cycle:
        Weight-refresh period ``c`` (default 64).  Ignored when ``adaptive`` is
        ``False``.
    adaptive:
        If ``False``, the fixed ``weight`` is used for every iteration and no
        ω' computations are performed (the "static" strategy of Fig. 6).
    weight:
        Initial / fixed weight (the paper initializes the adaptive weights to 1).
    precisions:
        :class:`LevelPrecision` for the level (vectors fp16 by default).
    weight_precision:
        Precision of the ω' computation (fp32 per the paper).
    """

    def __init__(self, matrix, preconditioner, m: int = 2, cycle: int = 64,
                 adaptive: bool = True, weight: float = 1.0,
                 precisions: LevelPrecision | None = None,
                 weight_precision: Precision | str = Precision.FP32) -> None:
        if m < 1:
            raise ValueError("Richardson requires at least one iteration per invocation")
        if cycle < 1:
            raise ValueError("the weight-update cycle c must be >= 1")
        self.matrix = as_operator(matrix)
        self.preconditioner = preconditioner
        self.m = int(m)
        self.cycle = int(cycle)
        self.adaptive = bool(adaptive)
        self.precisions = precisions or LevelPrecision(
            matrix=Precision.FP16, vector=Precision.FP16, preconditioner=Precision.FP16
        )
        self.weight_precision = as_precision(weight_precision)

        # Global state retained across invocations (Algorithm 1's globals).
        self.weights = np.full(self.m, float(weight), dtype=np.float64)
        self.call_count = 0          # cntr in Algorithm 1 (number of completed calls)
        self.update_count = 0        # l in Eq. (5)
        # compiled plans (per backend), compiled sweeps (per backend and
        # block shape) and fused-sweep scratch (per thread)
        self._plans: dict = {}
        self._sweeps: dict = {}
        self._workspace = ThreadLocalWorkspace()

    def __getstate__(self) -> dict:
        # plans and sweeps are re-derivable, and a compiled sweep holds a
        # compiled-call handle that does not pickle: a copy starts without
        return {**self.__dict__, "_plans": {}, "_sweeps": {}}

    # ------------------------------------------------------------------ #
    @property
    def primary_preconditioner(self):
        return self.preconditioner

    @property
    def depth_label(self) -> str:
        return f"R{self.m}"

    def reset_state(self) -> None:
        """Forget the adapted weights (used between independent experiments)."""
        self.weights.fill(1.0)
        self.call_count = 0
        self.update_count = 0

    def _bind_sweep(self, key, plan, plan_wp, v: np.ndarray, ws,
                    cntr_end: int) -> np.ndarray:
        """Run the first non-refresh invocation of blocks like ``v`` through
        the loop, measured; record what it recorded, and cache under ``key``
        the engine's sweep bound to that record and to the loop's count of
        ``M`` applications (``None``: the engine has none)."""
        m = self.preconditioner
        applications = m.num_applications
        try:
            with measuring() as seen:
                z = self._steps(v, False, plan, plan_wp, ws, cntr_end)
        finally:
            traffic = Traffic.of_counter(seen)
            record_traffic(traffic)
        self._sweeps[key] = plan.backend.richardson_sweep(
            plan, m, self.m, v, traffic, m.num_applications - applications)
        return z

    def _level_plans(self):
        """``(level plan, weight-precision plan)`` on the active backend."""
        backend = get_backend()
        pair = self._plans.get(backend)
        if pair is None:
            plan = plan_for(self.matrix, self.precisions.vector, backend)
            plan_wp = plan_for(self.matrix, self.weight_precision, backend)
            pair = self._plans[backend] = (plan, plan_wp)
        return pair

    # ------------------------------------------------------------------ #
    def apply_batch(self, v: np.ndarray) -> np.ndarray:
        """Lockstep Richardson sweep over ``k`` residual columns.

        The matvec runs through the plan's batched product and ``M`` through
        its batched application; each column's update is
        ``z += ω·M⁻¹r`` with the current weights.  The invocation counts as
        ``k`` calls of Algorithm 1's global counter.  When that counter
        window crosses a refresh boundary, ω'_k is computed per column (one
        batched product and per-column dot products in fp32), each column is
        updated with its own ω'_k, and the shared weight is blended with the
        batch mean — the batch analogue of Eq. (5)'s cumulative average.
        A one-column call is exactly Algorithm 1's invocation; a wider one
        equals ``k`` one-column calls only when no refresh falls inside it,
        since the refresh sees the batch mean rather than the columns in
        sequence.  An invocation without a refresh runs as the engine's
        compiled sweep where it has one (:meth:`_bind_sweep`).
        """
        v = np.asarray(v)
        if v.ndim != 2:
            raise ValueError(f"apply_batch expects V of shape (n, k); got {v.shape}")
        k = v.shape[1]
        cntr_end = self.call_count + k
        refresh = self.adaptive and (self.call_count // self.cycle) != (cntr_end // self.cycle)
        plan, plan_wp = self._level_plans()
        ws = self._workspace.workspace

        v_level = vo.cast_vector(v, self.precisions.vector)
        sweep = None
        # the sweep stands for M's apply as its triangular form describes
        # it, so a wrapped or overridden apply keeps the loop
        if not refresh and self.preconditioner.applies_as_described():
            key = (plan.backend, v_level.shape, v_level.dtype)
            sweep = self._sweeps.get(key, _UNBOUND)
        if sweep is _UNBOUND:
            z = self._bind_sweep(key, plan, plan_wp, v_level, ws, cntr_end)
        elif sweep is not None:
            z = sweep(v_level, self.weights, ws)
        else:
            z = self._steps(v_level, refresh, plan, plan_wp, ws, cntr_end)
        if refresh:
            self.update_count += 1
        self.call_count = cntr_end
        return z

    def _steps(self, v_level, refresh: bool, plan, plan_wp, ws,
               cntr_end: int) -> np.ndarray:
        """The loop: ``m`` steps from ``z = 0``, refreshing the weights
        (with the window ending at ``cntr_end``) when ``refresh``."""
        vec_prec = self.precisions.vector
        wp = self.weight_precision
        backend = plan.backend
        z = np.zeros(v_level.shape, dtype=vec_prec.dtype)
        r = v_level                          # r_0 = v because z_0 = 0

        for step in range(self.m):
            if step > 0:
                # fused sweep: the next residual runs as one plan kernel
                # (one-pass spmv_axpy on CSR, staged combine elsewhere)
                r = plan.residual_batch(v_level, z)

            mr = self.preconditioner.apply_batch(r)
            mr = vo.cast_vector(mr, vec_prec)

            if refresh:
                # ω'_k computed in fp32: one extra product and two dot
                # products per column
                amr = np.ascontiguousarray(
                    plan_wp.apply_batch(vo.cast_vector(mr, wp)).T)
                r32 = np.ascontiguousarray(vo.cast_vector(r, wp).T)
                denom = np.array([vo.dot(col, col) for col in amr])
                numer = np.array([vo.dot(rc, col) for rc, col in zip(r32, amr)])
                if guards_enabled() and not (np.all(np.isfinite(denom))
                                             and np.all(np.isfinite(numer))):
                    # a NaN weight numerator/denominator poisons the globally
                    # shared weights for every later invocation — fail here,
                    # at the scalars the refresh computes anyway
                    bad = np.flatnonzero(~(np.isfinite(denom) & np.isfinite(numer)))
                    check_finite(float(denom[bad[0]] if not np.isfinite(denom[bad[0]])
                                       else numer[bad[0]]),
                                 "richardson.weight", iteration=step,
                                 columns=bad.tolist())
                omega = np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0),
                                 self.weights[step])
                l = cntr_end // self.cycle
                self.weights[step] = (l * self.weights[step] + float(omega.mean())) / (l + 1)
            else:
                omega = float(self.weights[step])
            # the weighted half of the sweep: z += ω·M⁻¹r per column (staged
            # fp16 on the fast engine; bit-identical to the unfused axpy)
            z = backend.weighted_update(z, mr, omega, vec_prec, scratch=ws)

        return z


def richardson_solve(matrix, b, preconditioner, m: int, weight: float = 1.0,
                     precision: Precision | str = Precision.FP64) -> np.ndarray:
    """Plain fixed-weight preconditioned Richardson: m steps from a zero guess.

    A convenience wrapper used by tests and the cost-model validation; the
    solver levels use :class:`RichardsonLevel`.
    """
    level = RichardsonLevel(
        matrix, preconditioner, m=m, adaptive=False, weight=weight,
        precisions=LevelPrecision(matrix=precision, vector=precision,
                                  preconditioner=precision),
    )
    return level.apply(np.asarray(b))
