"""Preconditioned Conjugate Gradient (CG).

One of the paper's three conventional baselines (the de-facto standard for
symmetric positive definite systems).  The solver itself runs in fp64; the
preconditioner's *storage* precision is varied (fp64/fp32/fp16) to produce the
fp64-CG / fp32-CG / fp16-CG variants of Figures 1-2, exactly as in the paper
("fp64-based solvers, varying the precision of the preconditioner storage").
"""

from __future__ import annotations

import time

import numpy as np

from ..operators import as_operator
from ..plans import plan_for
from ..precision import Precision
from ..sparse import residual_norm
from ..sparse import vectorops as vo
from .base import ConvergenceHistory, SolveResult, count_primary_applications
from .guards import check_finite, guards_enabled

__all__ = ["ConjugateGradient"]


class ConjugateGradient:
    """Preconditioned CG in fp64 with an arbitrary-storage-precision preconditioner."""

    def __init__(self, matrix, preconditioner=None, tol: float = 1e-8,
                 max_iterations: int = 10_000, name: str = "CG") -> None:
        self.matrix = as_operator(matrix)
        self.preconditioner = preconditioner
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.name = name

    @property
    def primary_preconditioner(self):
        return self.preconditioner

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None) -> SolveResult:
        start_time = time.perf_counter()
        b64 = np.asarray(b, dtype=np.float64)
        n = b64.size
        norm_b = float(np.linalg.norm(b64)) or 1.0
        x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()

        history = ConvergenceHistory()
        primary = self.preconditioner
        start_apps = count_primary_applications(primary) if primary is not None else 0

        # the compiled plan pre-binds the fp64 apply kernel
        apply64 = plan_for(self.matrix, Precision.FP64).apply
        r = b64 - apply64(x) if x.any() else b64.copy()
        z = (self.preconditioner.apply(r).astype(np.float64)
             if self.preconditioner is not None else r.copy())
        p = z.copy()
        rz = vo.dot(r, z)

        converged = False
        iterations = 0
        relres = float(np.linalg.norm(r)) / norm_b
        history.append(relres)

        for k in range(self.max_iterations):
            ap = apply64(p)
            pap = vo.dot(p, ap)
            if guards_enabled() and not np.isfinite(pap):
                # distinguish corruption (NaN/Inf: hard breakdown) from a
                # genuine loss of positive definiteness (pap <= 0: the
                # method's own graceful exit, kept below)
                check_finite(float(pap), "cg.pap", iteration=k,
                             iterate=x.copy())
            if pap <= 0.0 or not np.isfinite(pap):
                break  # loss of positive definiteness (or breakdown)
            alpha = rz / pap
            x_prev = x
            x = vo.axpy(alpha, p, x)
            r = vo.axpy(-alpha, ap, r)
            iterations = k + 1

            relres = vo.nrm2(r) / norm_b
            if guards_enabled() and not np.isfinite(relres):
                check_finite(float(relres), "cg.relres", iteration=k,
                             iterate=x_prev.copy())
            history.append(relres)
            if relres < self.tol:
                converged = True
                break

            z = (self.preconditioner.apply(r).astype(np.float64)
                 if self.preconditioner is not None else r)
            rz_new = vo.dot(r, z)
            beta = rz_new / rz if rz != 0.0 else 0.0
            p = vo.xpby(z, beta, p)
            rz = rz_new

        final_relres = residual_norm(self.matrix, x, b64) / norm_b
        converged = converged and final_relres < self.tol * 10.0
        applications = (count_primary_applications(primary) - start_apps
                        if primary is not None else 0)
        return SolveResult(
            x=x, converged=converged, iterations=iterations,
            preconditioner_applications=applications,
            relative_residual=final_relres, history=history,
            solver_name=self.name, wall_time=time.perf_counter() - start_time,
        )
