"""End-to-end solves on the operator contract: matrix-free F3R and serving.

Pins the issue's acceptance criteria:

* ``F3RSolver(StencilOperator(...)).solve(b)`` converges with the *same
  iteration counts* as the assembled solve on the same grid, for every
  precision variant — including ``solve_batch`` with per-column deflation;
* preconditioner ``"auto"`` falls back to Jacobi-from-``diagonal()`` when the
  operator has no assembled entries, and factorization kinds are rejected
  cleanly;
* the :class:`~repro.serve.BatchDispatcher` serves mixed assembled and
  matrix-free requests through one queue, grouped by
  ``operator.fingerprint()``.
"""

import numpy as np
import pytest

from repro.backends import use_backend
from repro.core import F3RConfig, F3RSolver
from repro.matgen import poisson3d, poisson3d_operator
from repro.operators import ScaledOperator, as_operator
from repro.precision import Precision
from repro.precond import IdentityPreconditioner, JacobiPreconditioner
from repro.serve import BatchDispatcher
from repro.solvers import (
    BiCGStab,
    ConjugateGradient,
    RichardsonLevel,
    fgmres_cycle_batch,
)
from repro.sparse import residual_norm

pytestmark = pytest.mark.tier1

GRID = (6, 5, 4)
VARIANTS = ("fp16", "fp32", "fp64")


@pytest.fixture(scope="module")
def problem():
    matrix = poisson3d(*GRID)
    op = poisson3d_operator(*GRID)
    rhs = np.random.default_rng(21).standard_normal(matrix.nrows)
    return matrix, op, rhs


class TestMatrixFreeF3R:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_same_iteration_counts_as_assembled(self, problem, variant):
        matrix, op, rhs = problem
        config = F3RConfig(variant=variant, tol=1e-8)
        free = F3RSolver(op, preconditioner="auto", config=config).solve(rhs)
        assembled = F3RSolver(matrix, preconditioner="jacobi",
                              config=config).solve(rhs)
        assert free.converged and assembled.converged
        assert free.iterations == assembled.iterations
        assert (free.preconditioner_applications
                == assembled.preconditioner_applications)
        assert residual_norm(op, free.x, rhs) / np.linalg.norm(rhs) < 1e-8

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_backend_knob_applies(self, problem, backend):
        _, op, rhs = problem
        config = F3RConfig(variant="fp32", tol=1e-8, backend=backend)
        result = F3RSolver(op, preconditioner="auto", config=config).solve(rhs)
        assert result.converged

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_solve_batch_with_deflation(self, problem, variant):
        matrix, op, rhs = problem
        rng = np.random.default_rng(22)
        block = rng.standard_normal((op.nrows, 4))
        block[:, 1] *= 1e-7     # converges (deflates) almost immediately
        config = F3RConfig(variant=variant, tol=1e-8)
        batch = F3RSolver(op, preconditioner="auto", config=config).solve_batch(block)
        assert batch.all_converged
        assembled = F3RSolver(matrix, preconditioner="jacobi",
                              config=config).solve_batch(block)
        assert np.array_equal(batch.iterations, assembled.iterations)
        for j in range(block.shape[1]):
            relres = (residual_norm(op, batch.x[:, j], block[:, j])
                      / np.linalg.norm(block[:, j]))
            assert relres < 1e-8

    def test_auto_falls_back_to_jacobi(self, problem):
        _, op, _ = problem
        solver = F3RSolver(op, preconditioner="auto")
        assert isinstance(solver.preconditioner, JacobiPreconditioner)
        identity = F3RSolver(op, preconditioner="identity")
        assert isinstance(identity.preconditioner, IdentityPreconditioner)

    def test_factorization_kinds_rejected_matrix_free(self, problem):
        _, op, _ = problem
        with pytest.raises(ValueError, match="assembled"):
            F3RSolver(op, preconditioner="block-ilu0")

    def test_composites_over_assembled_keep_factorization_precond(self, problem):
        """Diagonal scaling an *assembled* system compositionally must not
        silently downgrade "auto" to Jacobi — the entries are available."""
        from repro.precond import BlockJacobiIC0

        matrix, _, rhs = problem
        scale = 1.0 / np.sqrt(np.abs(matrix.diagonal()))
        scaled = ScaledOperator.symmetric(matrix, scale)
        solver = F3RSolver(scaled, preconditioner="auto",
                           config=F3RConfig(variant="fp32"))
        assert isinstance(solver.preconditioner, BlockJacobiIC0)
        result = solver.solve(rhs)
        assert result.converged
        assert residual_norm(scaled, result.x, rhs) / np.linalg.norm(rhs) < 1e-8

    def test_scaled_operator_solve(self, problem):
        matrix, op, rhs = problem
        scale = 1.0 / np.sqrt(np.abs(matrix.diagonal()))
        scaled = ScaledOperator.symmetric(op, scale)
        result = F3RSolver(scaled, preconditioner="auto",
                           config=F3RConfig(variant="fp32")).solve(rhs)
        assert result.converged
        assert residual_norm(scaled, result.x, rhs) / np.linalg.norm(rhs) < 1e-8


class TestOperatorSolverPlumbing:
    def test_fgmres_cycle_bitwise_on_reference(self, problem):
        """A whole FGMRES cycle — matvecs, Gram-Schmidt, combination — is
        bit-identical between the stencil operator and its assembled twin on
        the reference backend."""
        matrix, op, rhs = problem
        with use_backend("reference"):
            z_free, it_free, est_free = fgmres_cycle_batch(
                op, rhs[:, None].copy(), None, m=8, vec_prec=Precision.FP64)
            z_asm, it_asm, est_asm = fgmres_cycle_batch(
                as_operator(matrix), rhs[:, None].copy(), None, m=8,
                vec_prec=Precision.FP64)
        assert np.array_equal(it_free, it_asm)
        assert np.array_equal(est_free, est_asm)
        assert np.array_equal(z_free, z_asm)

    def test_richardson_level_bitwise_on_reference(self, problem):
        matrix, op, rhs = problem
        with use_backend("reference"):
            free = RichardsonLevel(op, JacobiPreconditioner(op), m=3,
                                   adaptive=False)
            assembled = RichardsonLevel(matrix, JacobiPreconditioner(matrix), m=3,
                                        adaptive=False)
            assert np.array_equal(free.apply(rhs), assembled.apply(rhs))

    def test_cg_and_bicgstab_accept_operators(self, problem):
        _, op, rhs = problem
        cg = ConjugateGradient(op, JacobiPreconditioner(op), tol=1e-8).solve(rhs)
        assert cg.converged
        bi = BiCGStab(op, JacobiPreconditioner(op), tol=1e-8).solve(rhs)
        assert bi.converged


class TestDispatcherMixedQueue:
    def test_mixed_assembled_and_matrix_free_requests(self, problem):
        matrix, op, _ = problem
        rng = np.random.default_rng(23)
        config = F3RConfig(variant="fp32", tol=1e-8)
        with BatchDispatcher(config, max_batch=8) as dispatcher:
            assembled_futures = [dispatcher.submit(matrix, rng.standard_normal(matrix.nrows))
                                 for _ in range(3)]
            # a *different* StencilOperator instance with equal content must
            # land in the same group as `op` (fingerprint grouping)
            twin = poisson3d_operator(*GRID)
            free_futures = [dispatcher.submit(o, rng.standard_normal(op.nrows))
                            for o in (op, twin, op)]
            dispatcher.drain()
            results = [f.result() for f in assembled_futures + free_futures]
        assert all(r.converged for r in results)
        stats = dispatcher.stats.summary()
        assert stats["requests"] == 6
        assert stats["batches"] == 2          # one assembled group, one stencil group
        assert stats["largest_batch"] == 3
        assert stats["cache_misses"] == 2     # one setup per distinct fingerprint

    def test_matrix_free_group_reuses_cached_setup(self, problem):
        _, op, _ = problem
        rng = np.random.default_rng(24)
        config = F3RConfig(variant="fp32", tol=1e-8)
        with BatchDispatcher(config, max_batch=2) as dispatcher:
            futures = [dispatcher.submit(poisson3d_operator(*GRID),
                                         rng.standard_normal(op.nrows))
                       for _ in range(4)]
            dispatcher.drain()
            assert all(f.result().converged for f in futures)
        stats = dispatcher.stats.summary()
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] >= 1
