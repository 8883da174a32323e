"""Flexible GMRES (FGMRES): the inner-level building block and the outermost solver.

The paper's nested solvers are built from FGMRES cycles (Saad 1993) using
classical Gram-Schmidt orthogonalization and Givens rotations for the QR
factorization of the Hessenberg matrix, exactly as described in Section 4.2.
Flexibility means the preconditioning step may change from iteration to
iteration — which is what allows a nonlinear inner solver (another FGMRES or
the adaptive Richardson) to act as the preconditioner.

One cycle, :func:`fgmres_cycle_batch`, is the only Arnoldi loop: it advances
``k`` right-hand sides (one per column) in lockstep, and a single right-hand
side is a one-column block.  Two classes drive it:

* :class:`FGMRESLevel` — an inner level: runs exactly ``m`` iterations per
  invocation with a zero initial guess and no convergence check, returning the
  correction ``z ≈ A^{-1} v``.
* :class:`OuterFGMRES` — the outermost level (``F^{m1}``): fp64, convergence
  checked per column against the true relative residual, restarted (the whole
  nested solver re-executed) when the cycle is exhausted.  ``solve(b)`` and
  ``solve_batch(B)`` run the same outer loop; a one-column batch is the single
  solve, bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from ..backends import Workspace, get_backend
from ..backends.workspace import ThreadLocalWorkspace
from ..operators import as_operator
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

__all__ = ["FGMRESLevel", "OuterFGMRES", "fgmres_cycle_batch"]


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


def _rotate(h_col: np.ndarray, cs: np.ndarray, sn: np.ndarray, g: np.ndarray,
            j: int, dtype) -> float:
    """Givens step ``j`` of one column's QR, in place; returns the rotation's
    fp64 denominator (non-finite when the Hessenberg column is corrupted).

    The previous rotations are applied in the level dtype, the new one is
    formed in fp64 and stored rounded, as Section 4.2 keeps the scalar
    recurrence in the level's precision.
    """
    for i in range(j):
        temp = cs[i] * h_col[i] + sn[i] * h_col[i + 1]
        h_col[i + 1] = -sn[i] * h_col[i] + cs[i] * h_col[i + 1]
        h_col[i] = temp
    denom = np.sqrt(np.float64(h_col[j]) ** 2 + np.float64(h_col[j + 1]) ** 2)
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
    return denom


def fgmres_cycle_batch(matrix, rhs: np.ndarray, child, m: int, vec_prec: Precision,
                       rel_tol: np.ndarray | None = None,
                       collect_residuals: list | None = None,
                       workspace: Workspace | None = None, plan=None):
    """One FGMRES(m) cycle with zero initial guess over ``k`` right-hand sides.

    Every column carries its own Krylov recurrence — basis, Hessenberg
    column, Givens rotations, reduced RHS — and the columns advance through
    the iterations in lockstep, so the child runs through ``apply_batch``
    and the operator through the plan's batched product.  Every per-column
    scalar (``β``, the Gram-Schmidt projections and ``‖w‖``, the rotations)
    comes from the same kernel and formula whatever ``k`` is, so column
    ``i`` of a batch follows the recurrence of a one-column cycle on
    ``rhs[:, i]`` (a one-column block runs the vector kernels throughout).

    Parameters
    ----------
    matrix:
        The coefficient operator — anything satisfying the
        :class:`~repro.operators.LinearOperator` contract, stored at the
        level's matrix precision.
    rhs:
        ``(n, k)`` block in the level's vector precision, one right-hand side
        of the correction equation ``A z = v`` per column.
    child:
        The preconditioning step (inner solver / primary preconditioner /
        ``None`` for unpreconditioned GMRES).
    m:
        Maximum number of iterations for this cycle.
    vec_prec:
        Vector/scalar storage precision of this level.
    rel_tol:
        Optional per-column early-stop thresholds: column ``i`` stops
        iterating and is finalized once its residual estimate drops below
        ``rel_tol[i] * ||rhs[:, i]||`` (used by the outermost level).
        ``None`` runs every column for the full ``m`` iterations.
    collect_residuals:
        Optional list of ``k`` lists; list ``i`` receives column ``i``'s
        per-iteration residual estimates.
    workspace:
        Optional :class:`~repro.backends.Workspace` owning the Krylov blocks;
        solver levels pass their per-level arena so repeated cycles reuse the
        same buffers instead of reallocating.
    plan:
        Compiled :class:`~repro.plans.SolvePlan` for ``matrix`` at
        ``vec_prec`` (resolved on the active backend when not given).

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

    rhs_rows = np.ascontiguousarray(rhs.T)
    beta = np.array([vo.nrm2(row) for row in rhs_rows])
    finite = np.isfinite(beta)
    if guarded and not finite.all():
        # a NaN/Inf residual norm means the incoming residual is already
        # corrupted — the unguarded path returns a zero correction and lets
        # the outer level loop on garbage
        bad = np.flatnonzero(~finite)
        check_finite(float(beta[bad[0]]), "fgmres.beta", columns=bad.tolist())
    cols = np.flatnonzero(finite & (beta > 0.0)).tolist()   # position -> column
    ka = len(cols)
    if ka == 0:
        return z_out, iterations, estimates
    # column i stops once its estimate drops below rel_tol[i] * beta[i]
    limits = None if rel_tol is None else rel_tol * beta

    if plan is None:
        plan = plan_for(matrix, vec_prec, backend)
    ws = workspace if workspace is not None else Workspace()
    # Krylov basis V and corrections Z (one (m+1, n) / (m, n) row block per
    # column) and the per-column Hessenberg, Givens and reduced-RHS state
    # live in the level's capacity-keyed arena, so cycles with fewer active
    # columns reuse the same storage and a warm cycle allocates no arena
    # arrays.  Deflation compacts the active columns into the leading rows,
    # so the hot loop works on contiguous prefixes.
    basis = ws.get("krylov_basis_batch", (k, m + 1, n), dtype)
    z_vectors = ws.get("krylov_corrections_batch", (k, m, n), dtype)
    hessenberg = ws.get("fgmres_hessenberg_batch", (k, m + 1, m), dtype)
    cs = ws.get("fgmres_cs_batch", (k, m), dtype)
    sn = ws.get("fgmres_sn_batch", (k, m), dtype)
    g = ws.get("fgmres_g_batch", (k, m + 1), dtype)
    for state in (hessenberg, cs, sn, g):
        state.fill(0)
    for pos, col in enumerate(cols):
        basis[pos, 0] = vo.scal(1.0 / beta[col], rhs_rows[col])
        g[pos, 0] = dtype.type(beta[col])

    # Inner levels run the full m iterations with no early stop, so the
    # normalization of the next basis vector is unconditional (short of
    # breakdown) and fuses into the orthogonalize kernel.
    fused = rel_tol is None

    for j in range(m):
        block = np.ascontiguousarray(basis[:ka, j, :].T)
        if child is not None:
            try:
                block = child.apply_batch(block)
            except SolveEvent as event:
                # inner levels see only the compacted active columns — remap
                # their positions onto this cycle's rhs columns
                if event.columns is not None:
                    event.columns = [cols[c] for c in event.columns if c < ka]
                raise
        zj = vo.cast_vector(block, vec_prec)
        z_vectors[:ka, j, :] = zj.T
        w = np.ascontiguousarray(plan.apply_batch(zj).T)        # (ka, n)

        # classical Gram-Schmidt against each column's basis (backend
        # kernel: BLAS-2 on the fast engine, BLAS-1 loops on the reference),
        # fused with the normalization of basis[j+1] on always-continue steps
        steps = []
        for pos in range(ka):
            if fused and j + 1 < m:
                h_col, h_norm, normalized = backend.orthonormalize(
                    basis[pos], j, w[pos], vec_prec, scratch=ws)
            else:
                h_col, w[pos], h_norm = backend.orthogonalize(
                    basis[pos], j, w[pos], vec_prec, scratch=ws)
                normalized = False
            steps.append((h_col, h_norm, normalized))
        if guarded:
            # hard breakdown: a non-finite next-basis norm means the operator
            # product or the Gram-Schmidt sweep produced non-finite values
            bad = [pos for pos, step in enumerate(steps)
                   if not np.isfinite(step[1])]
            if bad:
                check_finite(float(steps[bad[0]][1]), "fgmres.hessenberg",
                             iteration=j, columns=[cols[pos] for pos in bad])

        bad, stopped = [], []
        for pos, (h_col, h_norm, normalized) in enumerate(steps):
            col = cols[pos]
            denom = _rotate(h_col, cs[pos], sn[pos], g[pos], j, dtype)
            if not np.isfinite(denom):
                # NaN Hessenberg entries slip past the h_norm check when the
                # corruption is confined to the projection coefficients; the
                # unguarded path zeroes the rotation and reports a bogus
                # (often exactly-zero) residual estimate
                bad.append((pos, denom))
            hessenberg[pos, :j + 2, j] = h_col
            estimated = abs(float(g[pos, j + 1]))
            if collect_residuals is not None:
                collect_residuals[col].append(estimated)
            if (h_norm == 0.0 or not np.isfinite(h_norm) or j + 1 == m
                    or (limits is not None and estimated < limits[col])):
                stopped.append(pos)
                iterations[col] = j + 1
                estimates[col] = estimated
            elif not normalized:
                basis[pos, j + 1] = vo.scal(1.0 / h_norm, w[pos])
        if guarded and bad:
            check_finite(float(bad[0][1]), "fgmres.givens", iteration=j,
                         columns=[cols[pos] for pos, _ in bad])

        if stopped:
            for pos in stopped:
                y = _back_substitute(hessenberg[pos], g[pos], j + 1)
                z_out[:, cols[pos]] = backend.combine(z_vectors[pos], y, j + 1,
                                                      vec_prec)
            if len(stopped) == ka:
                break
            # deflation: compact the surviving columns into the leading rows
            cont = [pos for pos in range(ka) if pos not in stopped]
            for arr in (basis, z_vectors, hessenberg, cs, sn, g):
                arr[:len(cont)] = arr[cont]
            cols = [cols[pos] for pos in cont]
            ka = len(cont)

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

    def apply_batch(self, v: np.ndarray) -> np.ndarray:
        # An inner level runs exactly m iterations per invocation with no
        # convergence check, so the lockstep cycle is column-for-column the
        # recurrence of k one-column applies.
        vec_prec = self.precisions.vector
        v_level = vo.cast_vector(np.asarray(v), vec_prec)
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

        A one-column run of the outer loop behind :meth:`solve_batch`.
        ``stagnation`` optionally arms a
        :class:`~repro.solvers.guards.StagnationWindow`: the true relative
        residual of every outer cycle is fed to it and a
        :class:`~repro.solvers.guards.SolveStagnation` is raised once the
        windowed progress stalls.  Unarmed (the default), the solver keeps
        its legacy behaviour of exhausting the restart budget.
        """
        b64 = np.asarray(b, dtype=np.float64)
        x_block = None if x0 is None else np.asarray(x0, dtype=np.float64)[:, None]
        try:
            return self._solve_columns(b64[:, None], x_block, [stagnation])[0]
        except SolveEvent as event:
            # a single-RHS event carries a vector iterate and no columns
            if event.iterate is not None and event.iterate.ndim == 2:
                event.iterate = event.iterate[:, 0]
            event.columns = None
            raise

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
        x = None
        if x0 is not None:
            x = np.asarray(x0, dtype=np.float64)
            if x.ndim == 1 and k == 1:
                x = x[:, None]
            if x.shape != (n, k):
                raise ValueError(f"x0 has shape {np.shape(x0)}; expected ({n}, {k}) "
                                 "(one initial guess per COLUMN, matching B)")
        return self._solve_columns(b_block, x)

    def _solve_columns(self, b_block: np.ndarray, x0: np.ndarray | None,
                       stagnation: list | None = None) -> BatchSolveResult:
        """The outer iteration over the columns of ``b_block``.

        Per column, in fp64: ``||b||``, the cycle's ``rel_tol``, the history
        (the true relative residual, each cycle's scaled per-iteration
        estimates, the final true relative residual) and the optional
        :class:`~repro.solvers.guards.StagnationWindow` of
        ``stagnation[i]``.  A column leaves the batch once converged or out
        of restarts; the others re-enter the next cycle together.
        """
        start_time = time.perf_counter()
        vec_prec = self.precisions.vector
        guarded = guards_enabled()
        n, k = b_block.shape
        b_cols = [np.ascontiguousarray(b_block[:, i]) for i in range(k)]
        norm_b = [float(np.linalg.norm(col)) or 1.0 for col in b_cols]
        x = (np.zeros((n, k), dtype=np.float64) if x0 is None
             else np.array(x0, dtype=np.float64))
        primary = self.primary_preconditioner
        start_applications = (count_primary_applications(primary)
                              if primary is not None else 0)
        mat64 = (self.matrix if self.matrix.precision == Precision.FP64
                 else self.matrix.astype(Precision.FP64))
        plan, plan64 = self._plan_pair(mat64)

        def true_relres(cols: list, x_cols: np.ndarray) -> list[float]:
            """fp64 ``||b − A x||/||b||`` of ``x_cols[:, p]`` for column
            ``cols[p]``; a non-finite value is a hard breakdown, restartable
            from the iterate block ``x`` holds when it fires."""
            out = [residual_norm(self.matrix, np.ascontiguousarray(x_cols[:, p]),
                                 b_cols[i]) / norm_b[i] for p, i in enumerate(cols)]
            bad = [p for p, value in enumerate(out) if not np.isfinite(value)]
            if guarded and bad:
                check_finite(out[bad[0]], "outer.relres", iterate=x.copy(),
                             columns=[cols[p] for p in bad])
            return out

        histories = [ConvergenceHistory() for _ in range(k)]
        total_iterations = np.zeros(k, dtype=np.int64)
        restarts = np.zeros(k, dtype=np.int64)
        converged = np.zeros(k, dtype=bool)
        relres = true_relres(list(range(k)), x)
        active = []
        for i in range(k):
            histories[i].append(relres[i])
            converged[i] = relres[i] < self.tol
            if not converged[i]:
                active.append(i)

        while active:
            act = np.array(active, dtype=np.int64)
            x_act = x[:, act]
            if not x_act.any():
                r = b_block[:, act]
            else:
                r = plan64.residual_batch(b_block[:, act], x_act, record=False)
            r_level = vo.cast_vector(r, vec_prec)
            r_norm = [float(np.linalg.norm(row)) for row in np.ascontiguousarray(r.T)]
            level_norm = [float(np.linalg.norm(row)) or 1.0
                          for row in np.ascontiguousarray(r_level.T)]
            rel_tol = np.array([self.tol * norm_b[i] / max(r_norm[p], 1e-300)
                                for p, i in enumerate(active)])
            estimates = [[] for _ in active]
            try:
                z, iters, _ = fgmres_cycle_batch(
                    self.matrix, r_level, self.child, self.m, vec_prec,
                    rel_tol=rel_tol, collect_residuals=estimates,
                    workspace=self._workspace.workspace, plan=plan)
            except SolveEvent as event:
                # map cycle-local column positions back to the caller's
                # columns and attach the pre-cycle iterate block, so the
                # recovery layer can restart from the last finite iterate
                if event.columns is not None:
                    event.columns = [int(act[c]) for c in event.columns]
                if event.iterate is None:
                    event.iterate = x.copy()
                raise
            x_new = x_act + z.astype(np.float64)
            total_iterations[act] += iters

            # the outer-iteration residual estimates, scaled to ||b||
            for p, i in enumerate(active):
                for est in estimates[p]:
                    histories[i].append(est * r_norm[p] / level_norm[p] / norm_b[i])

            # the cycle's scalar recurrence may stay finite while the
            # combined correction does not (e.g. an fp16 overflow in the
            # basis combination) — restartable from the previous iterate
            relres_act = true_relres(active, x_new)
            x[:, act] = x_new
            next_active = []
            for p, i in enumerate(active):
                relres[i] = relres_act[p]
                if relres[i] < self.tol:
                    converged[i] = True
                    continue
                if stagnation and stagnation[i] is not None:
                    stagnation[i].check(relres[i], "outer.stagnation",
                                        iterate=x.copy())
                restarts[i] += 1
                if restarts[i] <= self.max_restarts:
                    next_active.append(i)
                # else: restart budget exhausted; the column leaves unconverged
            active = next_active

        wall_time = time.perf_counter() - start_time
        applications = ((count_primary_applications(primary) - start_applications)
                        if primary is not None else 0)
        # lockstep batches cannot attribute applications per column; split the
        # exact batch total evenly (remainder to the leading columns)
        share, extra = divmod(applications, k)
        results = []
        for i in range(k):
            histories[i].append(relres[i])
            results.append(SolveResult(
                x=x[:, i].copy(),
                converged=bool(converged[i]),
                iterations=int(total_iterations[i]),
                preconditioner_applications=share + (1 if i < extra else 0),
                relative_residual=float(relres[i]),
                history=histories[i],
                restarts=int(restarts[i]),
                solver_name=self.name,
                wall_time=wall_time / k,
            ))
        return BatchSolveResult(x=x, results=results, wall_time=wall_time)
