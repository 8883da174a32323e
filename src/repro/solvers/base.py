"""Common solver infrastructure: results, histories, and the inner-solver interface.

Terminology follows the paper's Section 3: a nested solver is a tuple
``(S1, S2, ..., SD, M)`` where each inner solver acts as a flexible
preconditioner for its parent.  Anything that can appear on the right of a
level — an inner solver or the primary preconditioner ``M`` — exposes
``apply(v) ≈ A^{-1} v`` (approximate solve with zero initial guess) and its
column-block form ``apply_batch(V)``, so the levels compose uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..precond.base import Preconditioner

__all__ = [
    "InnerSolver",
    "ApplyTarget",
    "BatchSolveResult",
    "ConvergenceHistory",
    "SolveResult",
    "count_primary_applications",
    "reset_primary_counter",
]

#: Anything usable as the preconditioning step of a level.
ApplyTarget = "InnerSolver | Preconditioner"


class InnerSolver(abc.ABC):
    """An inner solver: approximately solves ``A z = v`` starting from zero.

    Inner solvers are stateful objects (the adaptive Richardson weights persist
    across invocations), so one instance is created per nested-solver level and
    reused for the whole outer iteration.
    """

    @abc.abstractmethod
    def apply_batch(self, v: np.ndarray) -> np.ndarray:
        """Approximately solve ``A Z = V`` for ``V`` of shape ``(n, k)``.

        The columns advance in lockstep through the level's one recurrence,
        so the hot kernels run on ``(n, k)`` blocks (a one-column block runs
        them on vectors).
        """

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Return an approximate solution of ``A z = v`` (zero initial guess):
        a one-column :meth:`apply_batch`."""
        return self.apply_batch(np.asarray(v)[:, None])[:, 0]

    @property
    @abc.abstractmethod
    def depth_label(self) -> str:
        """Short description used in tuple notation, e.g. ``"F8"`` or ``"R2"``."""

    def describe(self) -> str:
        return self.depth_label


@dataclass
class ConvergenceHistory:
    """Per-outer-iteration record of the relative residual norm."""

    relative_residuals: list[float] = field(default_factory=list)

    def append(self, relres: float) -> None:
        self.relative_residuals.append(float(relres))

    def __len__(self) -> int:
        return len(self.relative_residuals)

    @property
    def final(self) -> float:
        return self.relative_residuals[-1] if self.relative_residuals else float("nan")

    def iterations_to(self, tol: float) -> int | None:
        """First (1-based) iteration index at which the residual drops below ``tol``."""
        for i, r in enumerate(self.relative_residuals, start=1):
            if r < tol:
                return i
        return None

    def is_monotonic(self, slack: float = 1.0 + 1e-12) -> bool:
        """True when the residual never increases by more than ``slack`` per step."""
        r = self.relative_residuals
        return all(r[i + 1] <= r[i] * slack for i in range(len(r) - 1))


@dataclass
class SolveResult:
    """Outcome of a linear solve.

    Attributes
    ----------
    x:
        Approximate solution (fp64).
    converged:
        Whether the relative-residual criterion was met.
    iterations:
        Number of outermost iterations performed (across restarts).
    preconditioner_applications:
        Number of invocations of the primary preconditioner ``M`` — the
        paper's Table 3 metric.
    relative_residual:
        Final true relative residual ``||b − A x|| / ||b||`` in fp64.
    history:
        Per-outer-iteration residual history.
    restarts:
        Number of times the whole solver was re-executed.
    solver_name:
        Human-readable label of the configuration.
    wall_time:
        Wall-clock seconds spent inside ``solve`` (emulation time; see
        :mod:`repro.perf` for modeled hardware time).
    recovery:
        :class:`~repro.core.recovery.SolveReport` when the recovery ladder
        intervened (breakdown restart, precision escalation, preconditioner
        rebuild); ``None`` for a clean first-attempt solve.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    preconditioner_applications: int
    relative_residual: float
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)
    restarts: int = 0
    solver_name: str = ""
    wall_time: float = 0.0
    recovery: object | None = None

    def summary(self) -> dict:
        out = {
            "solver": self.solver_name,
            "converged": self.converged,
            "iterations": self.iterations,
            "preconditioner_applications": self.preconditioner_applications,
            "relative_residual": self.relative_residual,
            "restarts": self.restarts,
            "wall_time": self.wall_time,
        }
        if self.recovery is not None:
            out["recovery"] = self.recovery.summary()
        return out


@dataclass
class BatchSolveResult:
    """Outcome of a batched multi-RHS solve (:meth:`OuterFGMRES.solve_batch`).

    Attributes
    ----------
    x:
        Solution block of shape ``(n, k)``, one column per right-hand side.
    results:
        Per-column :class:`SolveResult` entries.  Because the columns run in
        lockstep against one factorization, per-column
        ``preconditioner_applications`` and ``wall_time`` are the batch totals
        divided evenly across columns (columns that deflate early did less
        work than their share says; the batch total is exact).
    wall_time:
        Wall-clock seconds of the whole batched solve.
    """

    x: np.ndarray
    results: list[SolveResult]
    wall_time: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> SolveResult:
        return self.results[i]

    def __iter__(self):
        return iter(self.results)

    @property
    def converged(self) -> np.ndarray:
        return np.array([r.converged for r in self.results], dtype=bool)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.results)

    @property
    def iterations(self) -> np.ndarray:
        return np.array([r.iterations for r in self.results], dtype=np.int64)

    @property
    def relative_residuals(self) -> np.ndarray:
        return np.array([r.relative_residual for r in self.results])

    def summary(self) -> dict:
        return {
            "k": len(self.results),
            "all_converged": self.all_converged,
            "iterations": self.iterations.tolist(),
            "relative_residuals": self.relative_residuals.tolist(),
            "wall_time": self.wall_time,
        }


def count_primary_applications(target) -> int:
    """Number of primary-preconditioner applications recorded by ``target``.

    Works for a bare :class:`Preconditioner` and for inner solvers that expose
    their primary preconditioner via a ``primary_preconditioner`` attribute.
    """
    if isinstance(target, Preconditioner):
        return target.num_applications
    primary = getattr(target, "primary_preconditioner", None)
    if primary is not None:
        return primary.num_applications
    return 0


def reset_primary_counter(target) -> None:
    """Reset the application counter of the primary preconditioner under ``target``."""
    if isinstance(target, Preconditioner):
        target.reset_counter()
        return
    primary = getattr(target, "primary_preconditioner", None)
    if primary is not None:
        primary.reset_counter()
