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
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..backends.workspace import ThreadLocalWorkspace
from ..operators import as_operator
from ..perf.counters import counters_enabled, record_bytes, record_flops, record_kernel
from ..plans import plan_for
from ..precision import LevelPrecision, Precision, as_precision
from ..sparse import vectorops as vo
from .base import InnerSolver
from .guards import check_finite, guards_enabled

__all__ = ["RichardsonLevel", "richardson_solve"]


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
        self.weight_history: list[np.ndarray] = []
        # compiled plans (per backend) and fused-sweep scratch (per thread)
        self._plans: dict = {}
        self._workspace = ThreadLocalWorkspace()

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
        self.weight_history.clear()

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
    def apply(self, v: np.ndarray) -> np.ndarray:
        vec_prec = self.precisions.vector
        wp = self.weight_precision
        cntr = self.call_count + 1          # 1-based call index, as in Algorithm 1
        refresh = self.adaptive and (cntr % self.cycle == 0)
        plan, plan_wp = self._level_plans()
        backend = plan.backend
        ws = self._workspace.workspace

        v_level = vo.cast_vector(np.asarray(v), vec_prec)
        z = vo.vzeros(v_level.size, vec_prec)
        r = v_level                          # r_0 = v because z_0 = 0

        for k in range(self.m):
            if k > 0:
                # fused sweep: the next residual runs as one plan kernel
                # (one-pass spmv_axpy on CSR, staged combine elsewhere)
                r = plan.residual(v_level, z)

            mr = self.preconditioner.apply(r)
            mr = vo.cast_vector(mr, vec_prec)

            if refresh:
                # ω'_k computed in fp32: one extra SpMV and two reductions.
                mr32 = vo.cast_vector(mr, wp)
                amr = plan_wp.apply(mr32)
                r32 = vo.cast_vector(r, wp)
                denom = vo.dot(amr, amr)
                numer = vo.dot(r32, amr)
                if guards_enabled() and not (np.isfinite(denom) and np.isfinite(numer)):
                    # a NaN weight numerator/denominator poisons the globally
                    # shared weights for every later invocation — fail here,
                    # at the two scalars the refresh computes anyway
                    check_finite(float(denom if not np.isfinite(denom) else numer),
                                 "richardson.weight", iteration=k)
                omega = numer / denom if denom > 0.0 else self.weights[k]
                l = cntr // self.cycle
                self.weights[k] = (l * self.weights[k] + omega) / (l + 1)
            else:
                omega = float(self.weights[k])
            # the weighted half of the sweep: x += ω·M⁻¹r (staged fp16 on
            # the fast engine; bit-identical to the unfused axpy)
            z = backend.weighted_update(z, mr, omega, vec_prec, scratch=ws)

        if refresh:
            self.update_count += 1
            self.weight_history.append(self.weights.copy())
        self.call_count = cntr
        return z

    # ------------------------------------------------------------------ #
    def apply_batch(self, v: np.ndarray) -> np.ndarray:
        """Lockstep Richardson sweep over ``k`` residual columns.

        The recurrence is identical to ``k`` sequential :meth:`apply` calls
        with the current weights — the matvec runs as SpMM and ``M`` through
        its batched application.  The batched invocation counts as ``k``
        calls of Algorithm 1's global counter; when the counter window
        crosses a refresh boundary, ω'_k is computed per column (one batched
        SpMM + column-wise reductions in fp32) and the globally shared weight
        is blended with the batch mean — the batch analogue of Eq. (5)'s
        cumulative average.
        """
        v = np.asarray(v)
        if v.ndim != 2:
            raise ValueError(f"apply_batch expects V of shape (n, k); got {v.shape}")
        k = v.shape[1]
        vec_prec = self.precisions.vector
        wp = self.weight_precision
        cntr_end = self.call_count + k
        refresh = self.adaptive and (self.call_count // self.cycle) != (cntr_end // self.cycle)
        plan, plan_wp = self._level_plans()

        v_level = vo.cast_block(v, vec_prec)
        z = np.zeros(v_level.shape, dtype=vec_prec.dtype)
        r = v_level

        for step in range(self.m):
            if step > 0:
                r = plan.residual_batch(v_level, z)

            mr = self.preconditioner.apply_batch(r)
            mr = vo.cast_block(mr, vec_prec)

            if refresh:
                mr32 = vo.cast_block(mr, wp)
                amr = plan_wp.apply_batch(mr32)
                r32 = vo.cast_block(r, wp)
                denom = np.einsum("nk,nk->k", amr, amr).astype(np.float64)
                numer = np.einsum("nk,nk->k", r32, amr).astype(np.float64)
                if guards_enabled() and not (np.all(np.isfinite(denom))
                                             and np.all(np.isfinite(numer))):
                    bad = np.flatnonzero(~(np.isfinite(denom) & np.isfinite(numer)))
                    check_finite(float(denom[bad[0]] if not np.isfinite(denom[bad[0]])
                                       else numer[bad[0]]),
                                 "richardson.weight", iteration=step,
                                 columns=bad.tolist())
                if counters_enabled():
                    record_kernel("dot", 2 * k)
                    record_bytes(wp, 4 * k * amr.shape[0] * wp.bytes)
                    record_flops(wp, 4 * k * amr.shape[0])
                omega = np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0),
                                 self.weights[step])
                z = self._batched_weighted_update(omega, mr, z, vec_prec)
                l = cntr_end // self.cycle
                self.weights[step] = (l * self.weights[step] + float(omega.mean())) / (l + 1)
            else:
                z = self._batched_weighted_update(
                    np.full(k, self.weights[step]), mr, z, vec_prec)

        if refresh:
            self.update_count += 1
            self.weight_history.append(self.weights.copy())
        self.call_count = cntr_end
        return z

    def _batched_weighted_update(self, omega: np.ndarray, mr: np.ndarray,
                                 z: np.ndarray, vec_prec: Precision) -> np.ndarray:
        """``z + omega_j * mr_j`` per column, arithmetic in the level dtype."""
        dtype = vec_prec.dtype
        result = (omega.astype(dtype)[None, :] * mr + z).astype(dtype, copy=False)
        if counters_enabled():
            k, n = mr.shape[1], mr.shape[0]
            record_kernel("axpy", k)
            record_bytes(vec_prec, 3 * k * n * vec_prec.bytes)
            record_flops(vec_prec, 2 * k * n)
        return result


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
