"""Preconditioned BiCGStab.

The paper's baseline for non-symmetric systems.  As with CG, the iteration
runs in fp64 while the preconditioner storage precision is varied to obtain
fp64-/fp32-/fp16-BiCGStab.  Each iteration applies the primary preconditioner
twice (once per half-step), which is why the paper counts *preconditioning
steps* rather than iterations when comparing convergence speed.
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

__all__ = ["BiCGStab"]


class BiCGStab:
    """Right-preconditioned BiCGStab in fp64."""

    def __init__(self, matrix, preconditioner=None, tol: float = 1e-8,
                 max_iterations: int = 10_000, name: str = "BiCGStab") -> None:
        self.matrix = as_operator(matrix)
        self.preconditioner = preconditioner
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.name = name

    @property
    def primary_preconditioner(self):
        return self.preconditioner

    def _precondition(self, v: np.ndarray) -> np.ndarray:
        if self.preconditioner is None:
            return v
        return self.preconditioner.apply(v).astype(np.float64)

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
        r_hat = r.copy()
        rho_prev = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)

        converged = False
        iterations = 0
        relres = float(np.linalg.norm(r)) / norm_b
        history.append(relres)

        for k in range(self.max_iterations):
            rho = vo.dot(r_hat, r)
            if guards_enabled() and not np.isfinite(rho):
                # NaN/Inf rho is corruption; rho == 0 stays the method's own
                # serious-breakdown exit below
                check_finite(float(rho), "bicgstab.rho", iteration=k,
                             iterate=x.copy())
            if rho == 0.0 or not np.isfinite(rho):
                break  # serious breakdown
            if k == 0:
                p = r.copy()
            else:
                beta = (rho / rho_prev) * (alpha / omega) if rho_prev != 0.0 and omega != 0.0 else 0.0
                p = vo.xpby(r, beta, vo.axpy(-omega, v, p))
            phat = self._precondition(p)
            v = apply64(phat)
            rhat_v = vo.dot(r_hat, v)
            if guards_enabled() and not np.isfinite(rhat_v):
                check_finite(float(rhat_v), "bicgstab.rhat_v", iteration=k,
                             iterate=x.copy())
            if rhat_v == 0.0 or not np.isfinite(rhat_v):
                break
            alpha = rho / rhat_v
            s = vo.axpy(-alpha, v, r)
            iterations = k + 1

            if vo.nrm2(s) / norm_b < self.tol:
                x = vo.axpy(alpha, phat, x)
                relres = vo.nrm2(s) / norm_b
                history.append(relres)
                converged = True
                break

            shat = self._precondition(s)
            t = apply64(shat)
            tt = vo.dot(t, t)
            omega = vo.dot(t, s) / tt if tt != 0.0 else 0.0
            x = vo.axpy(alpha, phat, vo.axpy(omega, shat, x))
            r = vo.axpy(-omega, t, s)
            rho_prev = rho

            relres = vo.nrm2(r) / norm_b
            if guards_enabled() and not np.isfinite(relres):
                check_finite(float(relres), "bicgstab.relres", iteration=k,
                             iterate=x.copy())
            history.append(relres)
            if relres < self.tol:
                converged = True
                break
            if omega == 0.0:
                break  # stagnation

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
