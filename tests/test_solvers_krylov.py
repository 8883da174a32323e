"""Tests for the Krylov baselines: CG, BiCGStab, restarted FGMRES, and the FGMRES cycle."""

import numpy as np
import pytest

from repro.precision import LevelPrecision, Precision
from repro.precond import IdentityPreconditioner, JacobiPreconditioner
from repro.solvers import (
    BiCGStab,
    ConjugateGradient,
    FGMRESLevel,
    OuterFGMRES,
    RestartedFGMRES,
    fgmres_cycle_batch,
)
from repro.sparse import residual_norm

pytestmark = pytest.mark.tier1


def _cycle(matrix, b, child, m, vec_prec, rel_tol=None, collect_residuals=None):
    """One-column FGMRES cycle: ``(z, iterations, estimate)`` of column 0."""
    z, iters, est = fgmres_cycle_batch(
        matrix, np.asarray(b)[:, None], child, m, vec_prec,
        rel_tol=None if rel_tol is None else np.array([rel_tol]),
        collect_residuals=None if collect_residuals is None else [collect_residuals])
    return z[:, 0], int(iters[0]), float(est[0])


def _check_solution(matrix, result, b, tol=1e-7):
    assert result.converged
    assert residual_norm(matrix, result.x, b) / np.linalg.norm(b) < tol


class TestConjugateGradient:
    def test_converges_unpreconditioned(self, spd_matrix, spd_rhs):
        result = ConjugateGradient(spd_matrix, None, tol=1e-9, max_iterations=2000).solve(spd_rhs)
        _check_solution(spd_matrix, result, spd_rhs, tol=1e-8)

    def test_converges_with_ic0(self, spd_matrix, spd_rhs, spd_precond):
        m = spd_precond.astype("fp64")
        result = ConjugateGradient(spd_matrix, m, tol=1e-9).solve(spd_rhs)
        _check_solution(spd_matrix, result, spd_rhs, tol=1e-8)

    def test_preconditioning_reduces_iterations(self, poisson_matrix, rng):
        from repro.precond import ILU0Preconditioner

        b = rng.random(poisson_matrix.nrows)
        plain = ConjugateGradient(poisson_matrix, None, tol=1e-8,
                                  max_iterations=2000).solve(b)
        precond = ConjugateGradient(poisson_matrix, ILU0Preconditioner(poisson_matrix),
                                    tol=1e-8, max_iterations=2000).solve(b)
        assert plain.converged and precond.converged
        assert precond.iterations < plain.iterations

    def test_counts_one_preconditioning_per_iteration(self, spd_matrix, spd_rhs, spd_precond):
        m = spd_precond.astype("fp64")
        result = ConjugateGradient(spd_matrix, m, tol=1e-8).solve(spd_rhs)
        # one M application before the loop is replaced by the in-loop one at
        # the final (converged) iteration, so applications == iterations
        assert result.preconditioner_applications == result.iterations

    def test_fp16_preconditioner_still_converges(self, spd_matrix, spd_rhs, spd_precond):
        result = ConjugateGradient(spd_matrix, spd_precond.astype("fp16"), tol=1e-8).solve(spd_rhs)
        _check_solution(spd_matrix, result, spd_rhs)

    def test_respects_max_iterations(self, spd_matrix, spd_rhs):
        result = ConjugateGradient(spd_matrix, None, tol=1e-14, max_iterations=3).solve(spd_rhs)
        assert not result.converged
        assert result.iterations == 3

    def test_history_monotone_overall(self, spd_matrix, spd_rhs, spd_precond):
        result = ConjugateGradient(spd_matrix, spd_precond.astype("fp64"), tol=1e-8).solve(spd_rhs)
        hist = result.history.relative_residuals
        assert hist[-1] < hist[0]

    def test_initial_guess(self, spd_matrix, spd_rhs, spd_precond, rng):
        x0 = rng.standard_normal(spd_matrix.nrows)
        result = ConjugateGradient(spd_matrix, spd_precond.astype("fp64"), tol=1e-9).solve(
            spd_rhs, x0=x0)
        _check_solution(spd_matrix, result, spd_rhs, tol=1e-8)


class TestBiCGStab:
    def test_converges_nonsymmetric(self, nonsym_matrix, nonsym_rhs, nonsym_precond):
        result = BiCGStab(nonsym_matrix, nonsym_precond.astype("fp64"), tol=1e-9).solve(nonsym_rhs)
        _check_solution(nonsym_matrix, result, nonsym_rhs, tol=1e-8)

    def test_converges_on_spd_too(self, spd_matrix, spd_rhs, spd_precond):
        result = BiCGStab(spd_matrix, spd_precond.astype("fp64"), tol=1e-9).solve(spd_rhs)
        _check_solution(spd_matrix, result, spd_rhs, tol=1e-8)

    def test_two_preconditionings_per_iteration(self, nonsym_matrix, nonsym_rhs, nonsym_precond):
        m = nonsym_precond.astype("fp64")
        result = BiCGStab(nonsym_matrix, m, tol=1e-8).solve(nonsym_rhs)
        assert result.preconditioner_applications <= 2 * result.iterations
        assert result.preconditioner_applications >= 2 * (result.iterations - 1)

    def test_fp16_preconditioner(self, nonsym_matrix, nonsym_rhs, nonsym_precond):
        result = BiCGStab(nonsym_matrix, nonsym_precond.astype("fp16"), tol=1e-8).solve(nonsym_rhs)
        _check_solution(nonsym_matrix, result, nonsym_rhs)

    def test_max_iterations(self, nonsym_matrix, nonsym_rhs):
        result = BiCGStab(nonsym_matrix, None, tol=1e-14, max_iterations=2).solve(nonsym_rhs)
        assert not result.converged


class TestFGMRESCycle:
    def test_solves_small_system_exactly(self, dd_matrix, rng):
        b = rng.standard_normal(dd_matrix.nrows)
        z, iters, est = _cycle(dd_matrix, b, None, m=dd_matrix.nrows,
                               vec_prec=Precision.FP64, rel_tol=1e-12)
        assert np.linalg.norm(b - dd_matrix.to_dense() @ z) < 1e-8 * np.linalg.norm(b)
        assert iters <= dd_matrix.nrows

    def test_zero_rhs_returns_zero(self, dd_matrix):
        z, iters, est = _cycle(dd_matrix, np.zeros(dd_matrix.nrows), None, m=5,
                               vec_prec=Precision.FP64)
        assert iters == 0 and not z.any()

    def test_residual_estimate_decreases(self, dd_matrix, rng):
        b = rng.standard_normal(dd_matrix.nrows)
        residuals = []
        _cycle(dd_matrix, b, None, m=20, vec_prec=Precision.FP64,
               collect_residuals=residuals)
        assert residuals[-1] < residuals[0]
        assert all(residuals[i + 1] <= residuals[i] * (1 + 1e-10)
                   for i in range(len(residuals) - 1))

    def test_preconditioned_cycle_beats_unpreconditioned(self, spd_matrix, spd_rhs, spd_precond):
        m = spd_precond.astype("fp64")
        _, _, est_plain = _cycle(spd_matrix, spd_rhs, None, m=10, vec_prec=Precision.FP64)
        _, _, est_prec = _cycle(spd_matrix, spd_rhs, m, m=10, vec_prec=Precision.FP64)
        assert est_prec < est_plain


class TestFGMRESLevel:
    def test_apply_reduces_residual(self, spd_matrix, spd_rhs, spd_precond):
        level = FGMRESLevel(spd_matrix.astype("fp32"), spd_precond.astype("fp32"), m=8,
                            precisions=LevelPrecision(Precision.FP32, Precision.FP32))
        z = level.apply(spd_rhs.astype(np.float32)).astype(np.float64)
        r = spd_rhs - spd_matrix.to_dense() @ z
        assert np.linalg.norm(r) < 0.2 * np.linalg.norm(spd_rhs)

    def test_depth_label(self, spd_matrix):
        assert FGMRESLevel(spd_matrix, None, m=8).depth_label == "F8"

    def test_primary_preconditioner_discovery(self, spd_matrix, spd_precond):
        inner = FGMRESLevel(spd_matrix, spd_precond, m=4)
        outer = FGMRESLevel(spd_matrix, inner, m=4)
        assert outer.primary_preconditioner is spd_precond

    def test_invalid_m(self, spd_matrix):
        with pytest.raises(ValueError):
            FGMRESLevel(spd_matrix, None, m=0)


class TestRestartedFGMRES:
    def test_converges_spd(self, spd_matrix, spd_rhs, spd_precond):
        solver = RestartedFGMRES(spd_matrix, spd_precond.astype("fp64"), restart=32,
                                 tol=1e-9, max_iterations=2000)
        result = solver.solve(spd_rhs)
        _check_solution(spd_matrix, result, spd_rhs, tol=1e-8)

    def test_converges_nonsymmetric(self, nonsym_matrix, nonsym_rhs, nonsym_precond):
        solver = RestartedFGMRES(nonsym_matrix, nonsym_precond.astype("fp64"), restart=32,
                                 tol=1e-9, max_iterations=2000)
        result = solver.solve(nonsym_rhs)
        _check_solution(nonsym_matrix, result, nonsym_rhs, tol=1e-8)

    def test_name_contains_restart(self, spd_matrix, spd_precond):
        assert "64" in RestartedFGMRES(spd_matrix, spd_precond, restart=64).name

    def test_small_restart_needs_more_preconditionings(self, spd_matrix, spd_rhs, spd_precond):
        """Restarting discards subspace information: FGMRES(4) needs at least as
        many preconditioning steps as FGMRES(32) on the same problem."""
        big = RestartedFGMRES(spd_matrix, spd_precond.astype("fp64"), restart=32,
                              tol=1e-8, max_iterations=3000).solve(spd_rhs)
        small = RestartedFGMRES(spd_matrix, spd_precond.astype("fp64"), restart=4,
                                tol=1e-8, max_iterations=3000).solve(spd_rhs)
        assert big.converged and small.converged
        assert small.preconditioner_applications >= big.preconditioner_applications

    def test_unpreconditioned(self, spd_matrix, spd_rhs):
        result = RestartedFGMRES(spd_matrix, None, restart=64, tol=1e-8,
                                 max_iterations=2000).solve(spd_rhs)
        assert result.converged
        assert result.preconditioner_applications == 0


class TestOuterFGMRES:
    def test_zero_rhs(self, spd_matrix, spd_precond):
        solver = OuterFGMRES(spd_matrix, spd_precond.astype("fp64"), m=10, tol=1e-8)
        result = solver.solve(np.zeros(spd_matrix.nrows))
        assert result.converged
        assert np.allclose(result.x, 0.0)

    def test_result_fields(self, spd_matrix, spd_rhs, spd_precond):
        result = OuterFGMRES(spd_matrix, spd_precond.astype("fp64"), m=50, tol=1e-8,
                             name="outer-test").solve(spd_rhs)
        assert result.solver_name == "outer-test"
        assert result.wall_time > 0
        assert result.iterations > 0
        summary = result.summary()
        assert summary["converged"] is True

    def test_restart_limit_respected(self, spd_matrix, spd_rhs, spd_precond):
        solver = OuterFGMRES(spd_matrix, spd_precond.astype("fp64"), m=2, tol=1e-12,
                             max_restarts=1)
        result = solver.solve(spd_rhs)
        assert result.restarts <= 2
        assert result.iterations <= 2 * 2
