"""F3R: the paper's proposed nested mixed-precision solver.

``build_f3r`` assembles the four-level nested solver
``(F^m1, F^m2, F^m3, R^m4, M)`` from an :class:`F3RConfig`, and ``solve_f3r``
is the one-call convenience wrapper used by the examples and the experiment
harness.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..backends import use_backend
from ..operators import as_operator
from ..precond import make_primary_preconditioner
from ..precond.base import Preconditioner
from ..solvers import (
    BatchSolveResult,
    LevelSpec,
    OuterFGMRES,
    SolveResult,
    build_nested_solver,
)
from ..solvers.guards import validate_rhs
from .config import F3RConfig
from .recovery import (
    RecoveryPolicy,
    recover_solve,
    recover_solve_batch,
    recovery_enabled,
)

__all__ = ["build_f3r", "solve_f3r", "F3RSolver"]


def _level_specs(config: F3RConfig) -> list[LevelSpec]:
    schedule = config.schedule()
    return [
        LevelSpec("fgmres", config.m1, schedule[1]),
        LevelSpec("fgmres", config.m2, schedule[2]),
        LevelSpec("fgmres", config.m3, schedule[3]),
        LevelSpec(
            "richardson", config.m4, schedule[4],
            richardson_options={
                "cycle": config.cycle,
                "adaptive": config.adaptive_weight,
                "weight": config.fixed_weight,
            },
        ),
    ]


def build_f3r(matrix, preconditioner: Preconditioner,
              config: F3RConfig | None = None) -> OuterFGMRES:
    """Construct the F3R solver for ``matrix`` with the given primary preconditioner.

    ``matrix`` may be an assembled :class:`~repro.sparse.CSRMatrix` or any
    :class:`~repro.operators.LinearOperator` (the solver levels only apply
    it).  The preconditioner should be constructed in fp64; the builder casts
    it to the precision required by the innermost level of the chosen variant.
    """
    config = config or F3RConfig()
    levels = _level_specs(config)
    solver = build_nested_solver(
        matrix, preconditioner, levels, tol=config.tol,
        max_restarts=config.max_restarts, name=config.name,
    )
    return solver


class F3RSolver:
    """Object-style façade bundling matrix, preconditioner and configuration.

    This is the main public entry point::

        from repro import F3RSolver, F3RConfig
        solver = F3RSolver(A, preconditioner="auto", config=F3RConfig(variant="fp16"))
        result = solver.solve(b)
    """

    def __init__(self, matrix, preconditioner="auto",
                 config: F3RConfig | None = None, nblocks: int | None = None,
                 alpha: float = 1.0,
                 recovery: RecoveryPolicy | bool | None = None) -> None:
        # Anything satisfying the LinearOperator contract works: assembled
        # CSR (wrapped in an AssembledOperator), matrix-free stencils,
        # composites.  Preconditioner "auto" falls back to Jacobi built from
        # operator.diagonal() when entries aren't assembled.
        self.matrix = as_operator(matrix)
        self.config = config or F3RConfig()
        # Recovery ladder (repro.core.recovery): None = the process default
        # (on unless REPRO_RECOVERY/REPRO_GUARDS disable it), False = off,
        # True/policy = explicitly on (still requires REPRO_GUARDS, which
        # also gates the events the ladder reacts to).
        self.recovery_policy = (None if recovery is False
                                else recovery if isinstance(recovery, RecoveryPolicy)
                                else RecoveryPolicy())
        self._recovery_default = recovery is None
        self._precond_spec = (preconditioner if isinstance(preconditioner, str)
                              else None, nblocks, alpha)
        self._escalated_cache: dict[str, "F3RSolver"] = {}
        # The backend knob scopes construction too: preconditioner setup
        # (ILU(0) factorization, triangular plans) must run on the same
        # engine the solve will use.
        with self._backend_scope():
            if isinstance(preconditioner, str):
                preconditioner = make_primary_preconditioner(
                    self.matrix, kind=preconditioner, nblocks=nblocks, alpha=alpha,
                )
            self.preconditioner = preconditioner
            self._outer = build_f3r(self.matrix, preconditioner, self.config)

    def _backend_scope(self):
        """``use_backend(config.backend)`` or a no-op when unset."""
        if self.config.backend is not None:
            return use_backend(self.config.backend)
        return contextlib.nullcontext()

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def primary_preconditioner(self):
        return self._outer.primary_preconditioner

    def _recovery_active(self) -> bool:
        if self.recovery_policy is None:
            return False
        if self._recovery_default:
            return recovery_enabled()
        from ..solvers.guards import guards_enabled
        return guards_enabled()

    def _escalated(self, variant: str) -> "F3RSolver":
        """A sibling solver at an escalated precision variant (cached).

        Shares this solver's matrix and preconditioner objects — matrix and
        factor casts share structure, and the fingerprint-keyed plan cache
        makes the escalated plans warm after the first escalation.
        """
        solver = self._escalated_cache.get(variant)
        if solver is None:
            solver = F3RSolver(self.matrix, self.preconditioner,
                               config=self.config.with_params(variant=variant),
                               recovery=False)
            self._escalated_cache[variant] = solver
        return solver

    def degraded_sibling(self, variant: str) -> "F3RSolver":
        """A sibling solver at a *cheaper* precision variant (cached).

        The serve-time brownout knob: like :meth:`_escalated` it shares this
        solver's matrix and preconditioner objects, but the recovery ladder
        stays **active** on the sibling — a degraded solve that stagnates at
        the cheaper tier re-escalates through the normal ladder, so brownout
        trades per-iteration cost for iterations without ever weakening the
        convergence contract.
        """
        key = f"degrade:{variant}"
        solver = self._escalated_cache.get(key)
        if solver is None:
            solver = F3RSolver(self.matrix, self.preconditioner,
                               config=self.config.with_params(variant=variant))
            self._escalated_cache[key] = solver
        return solver

    def _rebuilt_stronger(self, alpha_boost: float) -> "F3RSolver | None":
        """An fp64-variant solver over a stronger-αILU preconditioner rebuild.

        Returns ``None`` when no stronger preconditioner can be built (the
        original had no αILU notion and no known factory kind).
        """
        key = f"rebuild:{alpha_boost}"
        solver = self._escalated_cache.get(key)
        if solver is not None:
            return solver
        kind, nblocks, alpha = self._precond_spec
        base_alpha = getattr(self.preconditioner, "alpha", None)
        if kind is None and base_alpha is None:
            return None
        boosted = max(float(base_alpha if base_alpha is not None else alpha), 1.0)
        boosted *= float(alpha_boost)
        try:
            with self._backend_scope():
                precond = make_primary_preconditioner(
                    self.matrix, kind=kind or "auto", nblocks=nblocks,
                    alpha=boosted)
        except (ValueError, TypeError):
            return None
        solver = F3RSolver(self.matrix, precond,
                           config=self.config.with_params(variant="fp64"),
                           recovery=False)
        self._escalated_cache[key] = solver
        return solver

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None) -> SolveResult:
        b = np.asarray(b)
        validate_rhs(b, "f3r.solve", expected_rows=self.matrix.nrows)
        with self._backend_scope():
            if not self._recovery_active():
                return self._outer.solve(b, x0=x0)
            return recover_solve(self, b, x0, self.recovery_policy)

    def solve_batch(self, b: np.ndarray,
                    x0: np.ndarray | None = None) -> BatchSolveResult:
        """Solve ``A X = B`` for the columns of ``B`` against one setup.

        All right-hand sides share this solver's matrix casts, preconditioner
        factorization and level workspaces; the nested levels advance the
        columns in lockstep so the hot kernels run on ``(n, k)`` blocks.  See
        :meth:`repro.solvers.OuterFGMRES.solve_batch`.  When recovery is
        active, poisoned or unconverged columns climb the escalation ladder
        individually (:func:`repro.core.recovery.recover_solve_batch`).
        """
        b_arr = np.asarray(b)
        if b_arr.ndim == 2:
            # non-finite entries are rejected here, before setup/cycle work;
            # shape diagnostics stay with OuterFGMRES.solve_batch (it knows
            # the (n, k)-vs-(k, n) hint)
            if not np.all(np.isfinite(b_arr)):
                validate_rhs(b_arr, "f3r.solve_batch")
        with self._backend_scope():
            if not self._recovery_active():
                return self._outer.solve_batch(b, x0=x0)
            b_block = np.asarray(b, dtype=np.float64)
            if b_block.ndim == 1:
                b_block = b_block[:, None]
            if (b_block.ndim != 2 or b_block.shape[0] != self.matrix.ncols):
                # delegate for the detailed shape error message
                return self._outer.solve_batch(b, x0=x0)
            x0_block = None
            if x0 is not None:
                x0_block = np.array(x0, dtype=np.float64)
                if x0_block.ndim == 1 and b_block.shape[1] == 1:
                    x0_block = x0_block[:, None]
                if x0_block.shape != b_block.shape:
                    return self._outer.solve_batch(b, x0=x0)
            return recover_solve_batch(self, b_block, x0_block,
                                       self.recovery_policy)

    def rebuild(self, config: F3RConfig) -> "F3RSolver":
        """Return a new solver sharing matrix and preconditioner with a new config."""
        return F3RSolver(self.matrix, self.preconditioner, config=config)


def solve_f3r(matrix, b: np.ndarray, preconditioner="auto",
              config: F3RConfig | None = None, nblocks: int | None = None,
              alpha: float = 1.0, x0: np.ndarray | None = None) -> SolveResult:
    """One-call F3R solve: build the preconditioner and solver, then run it."""
    solver = F3RSolver(matrix, preconditioner=preconditioner, config=config,
                       nblocks=nblocks, alpha=alpha)
    return solver.solve(b, x0=x0)
