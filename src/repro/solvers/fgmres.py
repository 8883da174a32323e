"""Flexible GMRES (FGMRES): the inner-level building block and the outermost solver.

The paper's nested solvers are built from FGMRES cycles (Saad 1993) using
classical Gram-Schmidt orthogonalization and Givens rotations for the QR
factorization of the Hessenberg matrix, exactly as described in Section 4.2.
Flexibility means the preconditioning step may change from iteration to
iteration — which is what allows a nonlinear inner solver (another FGMRES or
the adaptive Richardson) to act as the preconditioner.

Two classes share the cycle implementation:

* :class:`FGMRESLevel` — an inner level: runs exactly ``m`` iterations per
  invocation with a zero initial guess and no convergence check, returning the
  correction ``z ≈ A^{-1} v``.
* :class:`OuterFGMRES` — the outermost level (``F^{m1}``): fp64, convergence
  checked against the true relative residual, restarted (the whole nested
  solver re-executed) when the cycle is exhausted.
"""

from __future__ import annotations

import time

import numpy as np

from ..backends import Workspace, get_backend
from ..backends.workspace import ThreadLocalWorkspace
from ..operators import as_operator
from ..perf.counters import counters_enabled, record_bytes, record_flops, record_kernel
from ..plans import plan_for
from ..precision import LevelPrecision, Precision
from ..sparse import residual_norm
from ..sparse import vectorops as vo
from .base import (
    BatchSolveResult,
    ConvergenceHistory,
    InnerSolver,
    SolveResult,
    count_primary_applications,
)
from .guards import SolveEvent, check_finite, guards_enabled

__all__ = ["FGMRESLevel", "OuterFGMRES", "fgmres_cycle", "fgmres_cycle_batch"]


def _apply_child(child, v: np.ndarray) -> np.ndarray:
    """Apply the preconditioning step of a level (inner solver, M, or nothing).

    With no child the identity correction is returned as-is; the cycle copies
    it into the correction arena, so no defensive copy is needed here.
    """
    if child is None:
        return v
    return child.apply(v)


def _apply_child_batch(child, v: np.ndarray) -> np.ndarray:
    """Batched preconditioning step: ``v`` has one residual per column.

    Inner solvers and preconditioners both expose ``apply_batch`` (lockstep
    or column-loop, depending on the level); ``None`` is the identity.
    """
    if child is None:
        return v
    return child.apply_batch(v)


def _back_substitute(hessenberg: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """Solve the reduced system ``R y = g`` of a completed cycle (in fp64)."""
    r_mat = hessenberg[:k, :k].astype(np.float64)
    g_vec = g[:k].astype(np.float64)
    y = np.zeros(k, dtype=np.float64)
    for i in range(k - 1, -1, -1):
        s = g_vec[i] - np.dot(r_mat[i, i + 1:k], y[i + 1:k])
        diag = r_mat[i, i]
        y[i] = s / diag if diag != 0.0 else 0.0
    return y


def fgmres_cycle(matrix, rhs: np.ndarray, child, m: int, vec_prec: Precision,
                 rel_tol: float | None = None, collect_residuals: list | None = None,
                 workspace: Workspace | None = None, plan=None):
    """One FGMRES(m) cycle with zero initial guess.

    Parameters
    ----------
    matrix:
        The coefficient operator — anything satisfying the
        :class:`~repro.operators.LinearOperator` contract (an assembled
        matrix, a matrix-free stencil, a composite), stored at the level's
        matrix precision.  Only ``apply``/``apply_batch`` are used.
    rhs:
        Right-hand side ``v`` of the correction equation ``A z = v`` (already in
        the level's vector precision).
    child:
        The preconditioning step (inner solver / primary preconditioner /
        ``None`` for unpreconditioned GMRES).
    m:
        Maximum number of iterations for this cycle.
    vec_prec:
        Vector/scalar storage precision of this level.
    rel_tol:
        If given, the cycle stops early once the GMRES residual estimate drops
        below ``rel_tol * ||rhs||`` (used only by the outermost level).
    collect_residuals:
        Optional list receiving the per-iteration residual estimates.
    workspace:
        Optional :class:`~repro.backends.Workspace` owning the Krylov-basis and
        correction-vector storage; solver levels pass their per-level arena so
        repeated cycles reuse the same buffers instead of reallocating.
    plan:
        Compiled :class:`~repro.plans.SolvePlan` for ``matrix`` at
        ``vec_prec``; operator products run through its pre-bound kernel.
        Resolved with :func:`~repro.plans.plan_for` on the active backend
        when not given (solver levels pass their cached plan).

    Returns
    -------
    (z, iterations, estimated_residual):
        ``z`` is the correction in the level's vector precision.
    """
    backend = get_backend()
    dtype = vec_prec.dtype
    n = rhs.size
    guarded = guards_enabled()
    beta = vo.nrm2(rhs)
    if beta == 0.0 or not np.isfinite(beta):
        if guarded and not np.isfinite(beta):
            # a NaN/Inf residual norm means the incoming residual is already
            # corrupted — the legacy path returns a zero correction and lets
            # the outer level loop on garbage
            check_finite(beta, "fgmres.beta")
        return np.zeros(n, dtype=dtype), 0, 0.0

    if plan is None:
        plan = plan_for(matrix, vec_prec, backend)
    ws = workspace if workspace is not None else Workspace()
    # Krylov basis V and per-iteration corrections Z live in the level's arena
    # (rows are vectors); both persist across cycles of the same level.  The
    # arenas are sized for m iterations but allocated untouched (np.empty), so
    # resident memory grows with the iterations actually run, as the old
    # per-iteration lists did — only address space is reserved up front.
    basis = ws.get("krylov_basis", (m + 1, n), dtype)
    z_vectors = ws.get("krylov_corrections", (m, n), dtype)
    basis[0] = vo.scal(1.0 / beta, rhs)
    # Hessenberg in the level's scalar precision; Givens rotations and the
    # reduced RHS g likewise (the paper keeps these in fp32 for inner levels).
    # All four live in the level's arena — a warm cycle allocates nothing.
    hessenberg = ws.get("fgmres_hessenberg", (m + 1, m), dtype, zero=True)
    cs = ws.get("fgmres_cs", m, dtype, zero=True)
    sn = ws.get("fgmres_sn", m, dtype, zero=True)
    g = ws.get("fgmres_g", m + 1, dtype, zero=True)
    g[0] = dtype.type(beta)

    # Inner levels run the full m iterations with no early stop, so the
    # normalization of the next basis vector is unconditional (short of
    # breakdown) and fuses into the orthogonalize kernel.
    fused_normalize = rel_tol is None

    iterations = 0
    estimated = beta
    for j in range(m):
        zj = _apply_child(child, basis[j])
        zj = vo.cast_vector(zj, vec_prec)
        z_vectors[j] = zj
        w = plan.apply(zj)

        # classical Gram-Schmidt against basis[:j+1] (backend kernel; the fast
        # engine runs it as BLAS-2, the reference as per-column BLAS-1 loops),
        # fused with the normalization of basis[j+1] on always-continue steps
        normalized = False
        if fused_normalize and j + 1 < m:
            h_col, h_norm, normalized = backend.orthonormalize(
                basis, j, w, vec_prec, scratch=ws)
        else:
            h_col, w, h_norm = backend.orthogonalize(basis, j, w, vec_prec,
                                                     scratch=ws)
        if guarded and not np.isfinite(h_norm):
            # hard breakdown: the new basis vector's norm is NaN/Inf, so the
            # operator product or the Gram-Schmidt sweep produced non-finite
            # values — the whole recurrence from here on is garbage
            check_finite(float(h_norm), "fgmres.hessenberg", iteration=j)

        # apply the previous Givens rotations to the new column
        for i in range(j):
            temp = cs[i] * h_col[i] + sn[i] * h_col[i + 1]
            h_col[i + 1] = -sn[i] * h_col[i] + cs[i] * h_col[i + 1]
            h_col[i] = temp
        # new rotation annihilating h_col[j+1]
        denom = np.sqrt(np.float64(h_col[j]) ** 2 + np.float64(h_col[j + 1]) ** 2)
        if guarded and not np.isfinite(denom):
            # NaN Hessenberg entries slip past the h_norm check when the
            # corruption is confined to the projection coefficients; the
            # legacy path silently zeroes the rotation and reports a bogus
            # (often exactly-zero) residual estimate
            check_finite(float(denom), "fgmres.givens", iteration=j)
        if denom == 0.0 or not np.isfinite(denom):
            cs_j, sn_j = 1.0, 0.0
        else:
            cs_j = float(h_col[j]) / denom
            sn_j = float(h_col[j + 1]) / denom
        cs[j] = dtype.type(cs_j)
        sn[j] = dtype.type(sn_j)
        h_col[j] = dtype.type(cs_j * float(h_col[j]) + sn_j * float(h_col[j + 1]))
        h_col[j + 1] = dtype.type(0.0)

        g[j + 1] = dtype.type(-sn_j * float(g[j]))
        g[j] = dtype.type(cs_j * float(g[j]))

        hessenberg[: j + 2, j] = h_col
        iterations = j + 1
        estimated = abs(float(g[j + 1]))
        if collect_residuals is not None:
            collect_residuals.append(estimated)

        lucky_breakdown = h_norm == 0.0 or not np.isfinite(h_norm)
        if lucky_breakdown:
            break
        if rel_tol is not None and estimated < rel_tol * beta:
            break
        if j + 1 < m and not normalized:
            basis[j + 1] = vo.scal(1.0 / h_norm, w)

    # back substitution R y = g (in fp64 for robustness; y is tiny)
    k = iterations
    if k == 0:
        return np.zeros(n, dtype=dtype), 0, float(estimated)
    y = _back_substitute(hessenberg, g, k)

    z = backend.combine(z_vectors, y, k, vec_prec)
    return z, iterations, float(estimated)


def _record_batched_gram_schmidt(p: Precision, n: int, k: int, ncols: int) -> None:
    """Counter parity with ``k`` single-column Gram-Schmidt steps."""
    if not counters_enabled():
        return
    record_kernel("dot", k * ncols)
    record_bytes(p, 2 * k * ncols * n * p.bytes)
    record_flops(p, 2 * k * ncols * n)
    record_kernel("axpy", k * ncols)
    record_bytes(p, 3 * k * ncols * n * p.bytes)
    record_flops(p, 2 * k * ncols * n)
    record_kernel("norm", k)
    record_bytes(p, k * n * p.bytes)
    record_flops(p, 2 * k * n)


def fgmres_cycle_batch(matrix, rhs: np.ndarray, child, m: int, vec_prec: Precision,
                       rel_tol: np.ndarray | None = None,
                       workspace: Workspace | None = None, plan=None):
    """One lockstep FGMRES(m) cycle over ``k`` right-hand sides (columns of ``rhs``).

    Every column carries its own Krylov recurrence — basis, Hessenberg
    column, Givens rotations, reduced RHS — but the columns advance through
    the iterations together, so the hot operations run batched: the child is
    applied through ``apply_batch`` (trsm-backed preconditioners, lockstep
    inner levels), the operator through SpMM, and classical Gram-Schmidt as
    one stacked matmul over all active columns.

    Parameters
    ----------
    rhs:
        ``(n, k)`` block in the level's vector precision, one RHS per column.
    rel_tol:
        Optional per-column early-stop thresholds: column ``i`` deflates —
        stops iterating and is finalized — once its residual estimate drops
        below ``rel_tol[i] * ||rhs[:, i]||`` (used by the outermost level).
        ``None`` runs every column for the full ``m`` iterations, which is
        exactly ``k`` independent sequential cycles in lockstep.
    workspace:
        Optional arena owning the ``(k, m+1, n)`` Krylov-basis block.
    plan:
        As for :func:`fgmres_cycle`: the compiled plan whose batched kernel
        runs the operator products (resolved on the active backend when not
        given).

    Returns
    -------
    (Z, iterations, estimates):
        ``Z`` is ``(n, k)`` in the level's vector precision; ``iterations``
        and ``estimates`` are per-column arrays.
    """
    backend = get_backend()
    dtype = vec_prec.dtype
    n, k = rhs.shape
    guarded = guards_enabled()

    z_out = np.zeros((n, k), dtype=dtype)
    iterations = np.zeros(k, dtype=np.int64)
    estimates = np.zeros(k, dtype=np.float64)

    # per-column beta, computed as the sequential cycle does (dot in the
    # operand precision, square root in fp64)
    dots = np.einsum("nk,nk->k", rhs, rhs)
    beta = np.sqrt(dots.astype(np.float64))
    if counters_enabled():
        record_kernel("norm", k)
        record_bytes(vec_prec, k * n * vec_prec.bytes)
        record_flops(vec_prec, 2 * k * n)

    if guarded and not np.all(np.isfinite(beta)):
        bad = np.flatnonzero(~np.isfinite(beta))
        check_finite(float(beta[bad[0]]), "fgmres.beta", columns=bad.tolist())
    alive = np.isfinite(beta) & (beta > 0.0)
    estimates[:] = np.where(alive, beta, 0.0)
    col_at = np.nonzero(alive)[0]        # position -> original column index
    ka = col_at.size
    if ka == 0:
        return z_out, iterations, estimates

    if plan is None:
        plan = plan_for(matrix, vec_prec, backend)
    ws = workspace if workspace is not None else Workspace()
    # Krylov basis and correction blocks: one (m+1, n) / (m, n) arena row per
    # column, reused across cycles like the single-RHS arenas.  The arenas are
    # capacity-keyed (get_rows), so cycles with fewer active columns — after
    # deflation or restarts — reuse the same storage.  Deflation compacts the
    # active columns into the leading rows so the hot loop always works on
    # contiguous prefixes (views, no per-iteration gathers).
    basis = ws.get_rows("krylov_basis_batch", k, (m + 1, n), dtype)
    z_vectors = ws.get_rows("krylov_corrections_batch", k, (m, n), dtype)
    # Per-cycle recurrence state lives in the arena too (zero-filled to the
    # semantics of the old fresh np.zeros allocations), as does the Hessenberg
    # column assembled inside the Arnoldi loop — a warm cycle allocates no
    # per-iteration arrays.
    hessenberg = ws.get_rows("fgmres_hessenberg_batch", k, (m + 1, m), dtype)
    cs = ws.get_rows("fgmres_cs_batch", k, (m,), dtype)
    sn = ws.get_rows("fgmres_sn_batch", k, (m,), dtype)
    g = ws.get_rows("fgmres_g_batch", k, (m + 1,), dtype)
    h_col_arena = ws.get_rows("fgmres_hcol_batch", k, (m + 2,), dtype)
    for state in (hessenberg, cs, sn, g):
        state.fill(0)

    inv_beta = (1.0 / beta[col_at]).astype(dtype)
    basis[:ka, 0, :] = rhs[:, col_at].T * inv_beta[:, None]
    g[:ka, 0] = beta[col_at].astype(dtype)
    if counters_enabled():
        record_kernel("scal", ka)
        record_bytes(vec_prec, 2 * ka * n * vec_prec.bytes)
        record_flops(vec_prec, ka * n)

    def finalize(pos: int, kiter: int) -> None:
        """Back-substitute and combine one column's solution (at deflation
        or cycle end)."""
        orig = col_at[pos]
        if kiter == 0:
            return
        y = _back_substitute(hessenberg[pos], g[pos], kiter)
        z_out[:, orig] = backend.combine(z_vectors[pos], y, kiter, vec_prec)

    for j in range(m):
        # preconditioning step + operator product, batched over active columns
        try:
            zj = _apply_child_batch(child, np.ascontiguousarray(basis[:ka, j, :].T))
        except SolveEvent as event:
            # inner levels see only the compacted active columns — remap
            # their positions onto this cycle's rhs columns
            if event.columns is not None:
                event.columns = [int(col_at[c]) for c in event.columns
                                 if c < ka]
            raise
        zj = vo.cast_block(zj, vec_prec)
        z_vectors[:ka, j, :] = zj.T
        w = plan.apply_batch(zj)
        w = np.ascontiguousarray(w.T)                      # (ka, n)

        # classical Gram-Schmidt for all columns in one stacked matmul
        v_act = basis[:ka, :j + 1, :]
        h = np.matmul(v_act, w[:, :, None])[..., 0]        # (ka, j+1)
        w -= np.matmul(h[:, None, :], v_act)[:, 0, :]
        w_dots = np.einsum("kn,kn->k", w, w)
        h_norm = np.sqrt(w_dots.astype(np.float64))
        _record_batched_gram_schmidt(vec_prec, n, ka, j + 1)
        if guarded and not np.all(np.isfinite(h_norm)):
            bad = np.flatnonzero(~np.isfinite(h_norm))
            check_finite(float(h_norm[bad[0]]), "fgmres.hessenberg",
                         iteration=j, columns=col_at[bad].tolist())

        h_col = h_col_arena[:ka, :j + 2]
        h_col[:, :j + 1] = h.astype(dtype, copy=False)
        h_col[:, j + 1] = h_norm.astype(dtype)

        # previously accumulated Givens rotations, vectorized over columns
        for i in range(j):
            ci = cs[:ka, i]
            si = sn[:ka, i]
            temp = ci * h_col[:, i] + si * h_col[:, i + 1]
            h_col[:, i + 1] = -si * h_col[:, i] + ci * h_col[:, i + 1]
            h_col[:, i] = temp
        # new rotation annihilating h_col[:, j+1]
        hj = h_col[:, j].astype(np.float64)
        hj1 = h_col[:, j + 1].astype(np.float64)
        denom = np.sqrt(hj ** 2 + hj1 ** 2)
        if guarded and not np.all(np.isfinite(denom)):
            bad = np.flatnonzero(~np.isfinite(denom))
            check_finite(float(denom[bad[0]]), "fgmres.givens",
                         iteration=j, columns=col_at[bad].tolist())
        ok = (denom != 0.0) & np.isfinite(denom)
        safe = np.where(ok, denom, 1.0)
        cs_j = np.where(ok, hj / safe, 1.0)
        sn_j = np.where(ok, hj1 / safe, 0.0)
        cs[:ka, j] = cs_j.astype(dtype)
        sn[:ka, j] = sn_j.astype(dtype)
        h_col[:, j] = (cs_j * hj + sn_j * hj1).astype(dtype)
        h_col[:, j + 1] = dtype.type(0.0)

        gj = g[:ka, j].astype(np.float64)
        g[:ka, j + 1] = (-sn_j * gj).astype(dtype)
        g[:ka, j] = (cs_j * gj).astype(dtype)
        hessenberg[:ka, :j + 2, j] = h_col

        act_cols = col_at[:ka]
        iterations[act_cols] = j + 1
        est = np.abs(g[:ka, j + 1].astype(np.float64))
        estimates[act_cols] = est

        lucky_breakdown = (h_norm == 0.0) | ~np.isfinite(h_norm)
        stop = lucky_breakdown.copy()
        if rel_tol is not None:
            stop |= est < rel_tol[act_cols] * beta[act_cols]
        if j + 1 == m:
            stop[:] = True

        cont = np.nonzero(~stop)[0]
        if cont.size and j + 1 < m:
            # like vo.scal: the reciprocal is rounded to the level dtype and
            # the multiply runs in that dtype
            inv_norm = (1.0 / h_norm[cont]).astype(dtype)
            basis[cont, j + 1, :] = w[cont] * inv_norm[:, None]
            if counters_enabled():
                record_kernel("scal", cont.size)
                record_bytes(vec_prec, 2 * cont.size * n * vec_prec.bytes)
                record_flops(vec_prec, cont.size * n)

        stopped = np.nonzero(stop)[0]
        if stopped.size:
            for pos in stopped:
                finalize(int(pos), j + 1)
            if cont.size == 0:
                return z_out, iterations, estimates
            # deflation: compact the surviving columns into the leading rows
            for arr in (basis, z_vectors, hessenberg, cs, sn, g):
                arr[:cont.size] = arr[cont]
            col_at = col_at[cont]
            ka = cont.size

    return z_out, iterations, estimates


class FGMRESLevel(InnerSolver):
    """An inner FGMRES level: ``m`` iterations per invocation, no convergence check."""

    def __init__(self, matrix, child, m: int,
                 precisions: LevelPrecision | None = None) -> None:
        if m < 1:
            raise ValueError("FGMRES level requires m >= 1")
        self.matrix = as_operator(matrix)
        self.child = child
        self.m = int(m)
        self.precisions = precisions or LevelPrecision(
            matrix=Precision.FP32, vector=Precision.FP32
        )
        # per-thread so concurrent apply()/solve() on a shared solver stays
        # reentrant (as the pre-workspace code was)
        self._workspace = ThreadLocalWorkspace()
        self._plans: dict = {}

    @property
    def primary_preconditioner(self):
        child = self.child
        while child is not None and not hasattr(child, "num_applications"):
            child = getattr(child, "child", None) or getattr(child, "preconditioner", None)
        return child

    @property
    def depth_label(self) -> str:
        return f"F{self.m}"

    def _plan(self):
        """The compiled plan for this level on the active backend."""
        backend = get_backend()
        plan = self._plans.get(backend)
        if plan is None:
            plan = self._plans[backend] = plan_for(
                self.matrix, self.precisions.vector, backend)
        return plan

    def apply(self, v: np.ndarray) -> np.ndarray:
        vec_prec = self.precisions.vector
        v_level = vo.cast_vector(np.asarray(v), vec_prec)
        z, _, _ = fgmres_cycle(self.matrix, v_level, self.child, self.m, vec_prec,
                               workspace=self._workspace.workspace,
                               plan=self._plan())
        return z

    def apply_batch(self, v: np.ndarray) -> np.ndarray:
        # An inner level runs exactly m iterations per invocation with no
        # convergence check, so the lockstep batched cycle is column-for-column
        # the same recurrence as m sequential applies.
        vec_prec = self.precisions.vector
        v_level = vo.cast_block(np.asarray(v), vec_prec)
        z, _, _ = fgmres_cycle_batch(self.matrix, v_level, self.child, self.m,
                                     vec_prec, workspace=self._workspace.workspace,
                                     plan=self._plan())
        return z


class OuterFGMRES:
    """The outermost FGMRES level: fp64, convergence checking, restarting.

    Convergence is declared when the fp64 true relative residual
    ``||b − A x||/||b||`` drops below ``tol``; if the cycle of ``m`` iterations
    is exhausted the entire nested solver is re-executed from the current
    iterate ("in the manner of the restarting technique"), up to
    ``max_restarts`` additional times.
    """

    def __init__(self, matrix, child, m: int = 100, tol: float = 1e-8,
                 max_restarts: int = 2,
                 precisions: LevelPrecision | None = None, name: str = "") -> None:
        self.matrix = as_operator(matrix)
        self.child = child
        self.m = int(m)
        self.tol = float(tol)
        self.max_restarts = int(max_restarts)
        self.precisions = precisions or LevelPrecision(
            matrix=Precision.FP64, vector=Precision.FP64
        )
        self.name = name or f"(F{m}, ...)"
        self._workspace = ThreadLocalWorkspace()
        self._plans: dict = {}

    @property
    def primary_preconditioner(self):
        child = self.child
        while child is not None and not hasattr(child, "num_applications"):
            child = getattr(child, "child", None) or getattr(child, "preconditioner", None)
        return child

    @property
    def depth_label(self) -> str:
        return f"F{self.m}"

    def _plan_pair(self, mat64):
        """``(cycle plan, fp64 residual plan)`` on the active backend."""
        backend = get_backend()
        pair = self._plans.get(backend)
        if pair is None:
            plan = plan_for(self.matrix, self.precisions.vector, backend)
            plan64 = (plan if mat64 is self.matrix
                      and self.precisions.vector == Precision.FP64
                      else plan_for(mat64, Precision.FP64, backend))
            pair = self._plans[backend] = (plan, plan64)
        return pair

    # ------------------------------------------------------------------ #
    def solve(self, b: np.ndarray, x0: np.ndarray | None = None,
              stagnation=None) -> SolveResult:
        """Run the outer iteration to convergence (or restart exhaustion).

        ``stagnation`` optionally arms a
        :class:`~repro.solvers.guards.StagnationWindow`: the true relative
        residual of every outer cycle is fed to it and a
        :class:`~repro.solvers.guards.SolveStagnation` is raised once the
        windowed progress stalls.  Unarmed (the default), the solver keeps
        its legacy behaviour of exhausting the restart budget.
        """
        start_time = time.perf_counter()
        vec_prec = self.precisions.vector
        b64 = np.asarray(b, dtype=np.float64)
        norm_b = float(np.linalg.norm(b64))
        if norm_b == 0.0:
            norm_b = 1.0

        x = (np.zeros_like(b64) if x0 is None
             else np.asarray(x0, dtype=np.float64).copy())
        history = ConvergenceHistory()
        primary = self.primary_preconditioner
        start_applications = count_primary_applications(primary) if primary is not None else 0

        total_iterations = 0
        restarts = 0
        converged = False
        mat64 = (self.matrix if self.matrix.precision == Precision.FP64
                 else self.matrix.astype(Precision.FP64))
        plan, plan64 = self._plan_pair(mat64)
        relres = residual_norm(self.matrix, x, b64) / norm_b
        if guards_enabled() and not np.isfinite(relres):
            # corrupted initial residual (e.g. a poisoned matvec): raise now
            # instead of iterating on garbage for the whole restart budget
            check_finite(float(relres), "outer.relres", iterate=x.copy())
        history.append(relres)
        if relres < self.tol:
            converged = True

        while not converged and restarts <= self.max_restarts:
            if not x.any():
                r = b64.copy()
            else:
                r = plan64.residual(b64, x, record=False)
            r_level = vo.cast_vector(r, vec_prec)
            cycle_residuals: list[float] = []
            try:
                z, iters, _ = fgmres_cycle(
                    self.matrix, r_level, self.child, self.m, vec_prec,
                    rel_tol=self.tol * norm_b / max(float(np.linalg.norm(r)), 1e-300),
                    collect_residuals=cycle_residuals,
                    workspace=self._workspace.workspace,
                    plan=plan,
                )
            except SolveEvent as event:
                # enrich with the last finite iterate so the recovery ladder
                # can restart from it instead of discarding the progress
                if event.iterate is None:
                    event.iterate = x.copy()
                raise
            x_prev = x
            x = x + z.astype(np.float64)
            total_iterations += iters

            # record the outer-iteration residual estimates scaled to ||b||
            r_norm = float(np.linalg.norm(r))
            for est in cycle_residuals:
                history.append(est * r_norm / (float(np.linalg.norm(r_level)) or 1.0) / norm_b)

            relres = residual_norm(self.matrix, x, b64) / norm_b
            if guards_enabled() and not np.isfinite(relres):
                # the cycle's scalar recurrence stayed finite but the
                # combined correction didn't (e.g. an fp16 overflow in the
                # basis combination) — restartable from the previous iterate
                check_finite(float(relres), "outer.relres", iterate=x_prev.copy())
            if relres < self.tol:
                converged = True
                break
            if stagnation is not None:
                stagnation.check(relres, "outer.stagnation", iterate=x.copy())
            restarts += 1

        history.append(relres)
        applications = (count_primary_applications(primary) - start_applications
                        if primary is not None else 0)
        return SolveResult(
            x=x,
            converged=converged,
            iterations=total_iterations,
            preconditioner_applications=applications,
            relative_residual=relres,
            history=history,
            restarts=restarts,
            solver_name=self.name,
            wall_time=time.perf_counter() - start_time,
        )

    # ------------------------------------------------------------------ #
    def solve_batch(self, b: np.ndarray,
                    x0: np.ndarray | None = None) -> BatchSolveResult:
        """Solve ``A X = B`` for ``k`` right-hand sides against one setup.

        ``b`` is ``(n, k)`` (one RHS per column) or a sequence of ``k``
        vectors.  All columns share the matrix, the preconditioner setup and
        the level workspaces; each cycle advances every still-unconverged
        column in lockstep (:func:`fgmres_cycle_batch`), so the hot kernels
        run as SpMM / batched triangular solves.  Convergence is tracked per
        column — a column deflates out of the batch as soon as its true
        relative residual meets ``tol``, and restarts re-enter only the
        columns that still need work.
        """
        start_time = time.perf_counter()
        vec_prec = self.precisions.vector
        b_block = np.asarray(b, dtype=np.float64)
        if b_block.ndim == 1:
            b_block = b_block[:, None]
        elif b_block.ndim != 2:
            raise ValueError(f"solve_batch expects B of shape (n, k); got {b_block.shape}")
        if b_block.shape[0] != self.matrix.ncols:
            hint = (" (one right-hand side per COLUMN — did you pass (k, n)?)"
                    if b_block.shape[1] == self.matrix.ncols else "")
            raise ValueError(f"solve_batch got B of shape {b_block.shape} for a "
                             f"{self.matrix.shape} matrix{hint}")
        n, k = b_block.shape

        norm_b = np.linalg.norm(b_block, axis=0)
        norm_b = np.where(norm_b == 0.0, 1.0, norm_b)
        if x0 is None:
            x = np.zeros((n, k), dtype=np.float64)
        else:
            x = np.array(x0, dtype=np.float64)
            if x.ndim == 1 and k == 1:
                x = x[:, None]
            if x.shape != (n, k):
                raise ValueError(f"x0 has shape {np.shape(x0)}; expected ({n}, {k}) "
                                 "(one initial guess per COLUMN, matching B)")
        primary = self.primary_preconditioner
        start_applications = (count_primary_applications(primary)
                              if primary is not None else 0)
        mat64 = (self.matrix if self.matrix.precision == Precision.FP64
                 else self.matrix.astype(Precision.FP64))
        plan, plan64 = self._plan_pair(mat64)

        def true_relres(cols: np.ndarray) -> np.ndarray:
            r = plan64.residual_batch(b_block[:, cols], x[:, cols],
                                      record=False)
            return np.linalg.norm(r, axis=0) / norm_b[cols]

        histories = [ConvergenceHistory() for _ in range(k)]
        total_iterations = np.zeros(k, dtype=np.int64)
        restarts = np.zeros(k, dtype=np.int64)
        converged = np.zeros(k, dtype=bool)
        final_relres = true_relres(np.arange(k))
        if guards_enabled() and not np.all(np.isfinite(final_relres)):
            bad = np.flatnonzero(~np.isfinite(final_relres))
            check_finite(float(final_relres[bad[0]]), "outer.relres",
                         iterate=x.copy(), columns=[int(c) for c in bad])
        for i in range(k):
            histories[i].append(final_relres[i])
        converged[:] = final_relres < self.tol
        active = [i for i in range(k) if not converged[i]]

        while active:
            act = np.array(active, dtype=np.int64)
            if not x[:, act].any():
                r = b_block[:, act].copy()
            else:
                r = plan64.residual_batch(b_block[:, act], x[:, act],
                                          record=False)
            r_norm = np.linalg.norm(r, axis=0)
            r_level = vo.cast_block(r, vec_prec)
            rel_tol = self.tol * norm_b[act] / np.maximum(r_norm, 1e-300)

            try:
                z, iters, _ = fgmres_cycle_batch(
                    self.matrix, r_level, self.child, self.m, vec_prec,
                    rel_tol=rel_tol, workspace=self._workspace.workspace,
                    plan=plan,
                )
            except SolveEvent as event:
                # map cycle-local column positions back to the caller's
                # columns and attach the pre-cycle iterate block, so the
                # recovery layer can re-solve only the poisoned columns
                if event.columns is not None:
                    event.columns = [int(act[c]) for c in event.columns]
                if event.iterate is None:
                    event.iterate = x.copy()
                raise
            x[:, act] += z.astype(np.float64)
            total_iterations[act] += iters

            relres_act = true_relres(act)
            if guards_enabled() and not np.all(np.isfinite(relres_act)):
                bad = np.flatnonzero(~np.isfinite(relres_act))
                check_finite(float(relres_act[bad[0]]), "outer.relres",
                             iterate=x.copy(),
                             columns=[int(act[c]) for c in bad])
            final_relres[act] = relres_act
            next_active = []
            for pos, i in enumerate(act):
                histories[i].append(relres_act[pos])
                if relres_act[pos] < self.tol:
                    converged[i] = True
                else:
                    # count like the sequential solve: the increment lands even
                    # on the final failed cycle, so restarts agree across APIs
                    restarts[i] += 1
                    if restarts[i] <= self.max_restarts:
                        next_active.append(int(i))
                    # else: restart budget exhausted; the column leaves unconverged
            active = next_active

        wall_time = time.perf_counter() - start_time
        applications = ((count_primary_applications(primary) - start_applications)
                        if primary is not None else 0)
        # lockstep batches cannot attribute applications per column; split the
        # exact batch total evenly (remainder to the leading columns)
        share, extra = divmod(applications, k)
        results = [
            SolveResult(
                x=x[:, i].copy(),
                converged=bool(converged[i]),
                iterations=int(total_iterations[i]),
                preconditioner_applications=share + (1 if i < extra else 0),
                relative_residual=float(final_relres[i]),
                history=histories[i],
                restarts=int(restarts[i]),
                solver_name=self.name,
                wall_time=wall_time / k,
            )
            for i in range(k)
        ]
        return BatchSolveResult(x=x, results=results, wall_time=wall_time)
