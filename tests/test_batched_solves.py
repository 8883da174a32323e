"""Batched multi-RHS solves: ``solve_batch``, deflation, counters-off parity,
and the serving-layer :class:`~repro.serve.BatchDispatcher`.

The kernel-level batched-vs-looped equivalence lives in
``test_backends_equivalence.py``; this file covers the solver layer — per-RHS
convergence tracking, early deflation of converged columns, the counters
disabled path end-to-end — and the dispatcher's grouping/caching/threading
behavior.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.backends import use_backend
from repro.core import F3RConfig, F3RSolver
from repro.matgen import poisson2d, random_diagonally_dominant
from repro.perf import counters_disabled, counting
from repro.precond import ILU0Preconditioner
from repro.serve import BatchDispatcher
from repro.solvers import BatchSolveResult, OuterFGMRES

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module")
def poisson():
    return poisson2d(20)


@pytest.fixture(scope="module")
def outer_solver(poisson):
    return OuterFGMRES(poisson, ILU0Preconditioner(poisson), m=80, tol=1e-9,
                       max_restarts=1)


# --------------------------------------------------------------------------- #
class TestSolveBatch:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_matches_sequential_solves(self, poisson, outer_solver, backend):
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, (poisson.nrows, 5))
        with use_backend(backend):
            sequential = [outer_solver.solve(b[:, j]) for j in range(5)]
            batch = outer_solver.solve_batch(b)
        assert isinstance(batch, BatchSolveResult)
        assert batch.all_converged
        for j, result in enumerate(sequential):
            assert result.converged
            scale = max(1.0, float(np.linalg.norm(result.x)))
            assert np.linalg.norm(result.x - batch.x[:, j]) / scale < 1e-7

    def test_mixed_easy_hard_columns_deflate_early(self, poisson, outer_solver):
        """Columns of very different difficulty: the easy ones must converge
        (deflate) in fewer iterations than the hard ones, and every column
        must still meet the tolerance."""
        rng = np.random.default_rng(1)
        n = poisson.nrows
        b = np.empty((n, 4))
        # easy columns: already in the span the preconditioner nails —
        # b = A @ (smooth vector); hard columns: rough random data
        smooth = np.ones(n)
        b[:, 0] = poisson.matvec(smooth, record=False)
        b[:, 1] = poisson.matvec(smooth * 0.5, record=False)
        b[:, 2] = rng.uniform(-1, 1, n)
        b[:, 3] = rng.uniform(-1, 1, n)
        with use_backend("fast"):
            batch = outer_solver.solve_batch(b)
        assert batch.all_converged
        iters = batch.iterations
        assert iters[0] < iters[2] and iters[1] < iters[3]
        assert np.all(batch.relative_residuals < outer_solver.tol)

    def test_zero_column_converges_immediately(self, poisson, outer_solver):
        b = np.zeros((poisson.nrows, 2))
        b[:, 1] = np.random.default_rng(2).uniform(-1, 1, poisson.nrows)
        batch = outer_solver.solve_batch(b)
        assert batch.all_converged
        assert batch.iterations[0] == 0
        assert np.array_equal(batch.x[:, 0], np.zeros(poisson.nrows))

    def test_single_column_and_shape_errors(self, poisson, outer_solver):
        b = np.random.default_rng(3).uniform(-1, 1, poisson.nrows)
        batch = outer_solver.solve_batch(b)          # 1-D promotes to (n, 1)
        assert len(batch) == 1 and batch[0].converged
        with pytest.raises(ValueError, match="per COLUMN"):
            outer_solver.solve_batch(np.zeros((3, poisson.nrows)))

    def test_x0_shape_validated(self, poisson, outer_solver):
        b = np.random.default_rng(20).uniform(-1, 1, (poisson.nrows, 2))
        with pytest.raises(ValueError, match="x0 has shape"):
            outer_solver.solve_batch(b, x0=np.zeros((2, poisson.nrows)))
        with pytest.raises(ValueError, match="x0 has shape"):
            outer_solver.solve_batch(b, x0=np.zeros(poisson.nrows))
        x0 = np.zeros((poisson.nrows, 2))
        assert outer_solver.solve_batch(b, x0=x0).all_converged

    def test_restart_counts_match_sequential(self, poisson):
        # an unreachable tolerance: both APIs must report the same number of
        # restarts for the same work (the final failed cycle is counted)
        from repro.precond import IdentityPreconditioner

        solver = OuterFGMRES(poisson, IdentityPreconditioner(poisson.nrows),
                             m=3, tol=1e-300, max_restarts=2)
        b = np.random.default_rng(21).uniform(-1, 1, poisson.nrows)
        sequential = solver.solve(b)
        batch = solver.solve_batch(b[:, None])
        assert not sequential.converged and not batch[0].converged
        assert batch[0].restarts == sequential.restarts

    def test_krylov_arena_reused_across_deflation(self, poisson):
        # shrinking active-column counts must reuse one capacity-keyed arena,
        # not retain a buffer per distinct count
        from repro.backends import Workspace
        from repro.solvers import fgmres_cycle_batch
        from repro.precision import Precision

        ws = Workspace()
        rng = np.random.default_rng(22)
        for k in (6, 4, 2):
            rhs = rng.uniform(-1, 1, (poisson.nrows, k))
            fgmres_cycle_batch(poisson, rhs, None, 5, Precision.FP64,
                               workspace=ws)
        # one capacity-keyed buffer per arena-resident array (basis,
        # corrections, Hessenberg, cs, sn, g, and the Gram-Schmidt update) —
        # and no growth across shrinking column counts
        count_after_first = len(ws._buffers)
        assert count_after_first == 7
        allocs = ws.alloc_count
        rhs = rng.uniform(-1, 1, (poisson.nrows, 6))
        fgmres_cycle_batch(poisson, rhs, None, 5, Precision.FP64, workspace=ws)
        assert len(ws._buffers) == count_after_first
        assert ws.alloc_count == allocs  # warm cycle: zero arena allocations

    def test_restarts_only_reenter_unconverged_columns(self, poisson):
        # a tiny cycle forces restarts; per-column restart counts must track
        # each column's own convergence
        solver = OuterFGMRES(poisson, ILU0Preconditioner(poisson), m=10,
                             tol=1e-9, max_restarts=8)
        rng = np.random.default_rng(4)
        b = rng.uniform(-1, 1, (poisson.nrows, 3))
        batch = solver.solve_batch(b)
        assert batch.all_converged
        assert all(r.restarts <= 8 for r in batch.results)

    def test_preconditioner_applications_accounted(self, poisson):
        precond = ILU0Preconditioner(poisson)
        solver = OuterFGMRES(poisson, precond, m=80, tol=1e-9, max_restarts=1)
        b = np.random.default_rng(5).uniform(-1, 1, (poisson.nrows, 4))
        before = precond.num_applications
        batch = solver.solve_batch(b)
        total = precond.num_applications - before
        assert total > 0
        assert sum(r.preconditioner_applications for r in batch.results) == total


class TestF3RSolveBatch:
    @pytest.mark.parametrize("variant", ["fp64", "fp16"])
    def test_variants_converge(self, variant, spd_matrix):
        rng = np.random.default_rng(6)
        b = rng.uniform(-1, 1, (spd_matrix.nrows, 4))
        solver = F3RSolver(spd_matrix, preconditioner="auto", nblocks=4,
                           config=F3RConfig(variant=variant, m1=60, m2=4, m3=2,
                                            m4=2, tol=1e-7))
        batch = solver.solve_batch(b)
        assert batch.all_converged
        assert np.all(batch.relative_residuals < 1e-7)

    @pytest.mark.tier2
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_backends_agree(self, backend, nonsym_matrix, nonsym_rhs):
        b = np.stack([nonsym_rhs, -nonsym_rhs], axis=1)
        config = F3RConfig(variant="fp32", m1=60, m2=4, m3=2, m4=2, tol=1e-7,
                           backend=backend)
        solver = F3RSolver(nonsym_matrix, preconditioner="auto", nblocks=4,
                           config=config)
        batch = solver.solve_batch(b)
        assert batch.all_converged
        # the two columns are negatives of each other; so are the solutions
        scale = max(1.0, float(np.linalg.norm(batch.x[:, 0])))
        assert np.linalg.norm(batch.x[:, 0] + batch.x[:, 1]) / scale < 1e-5


# --------------------------------------------------------------------------- #
def _assert_bit_identical(single, column):
    """Two solve results agree bit for bit in everything a solve reports."""
    assert single.x.tobytes() == column.x.tobytes()
    assert single.iterations == column.iterations
    assert single.restarts == column.restarts
    assert single.preconditioner_applications == column.preconditioner_applications
    assert single.relative_residual == column.relative_residual
    assert single.history.relative_residuals == column.history.relative_residuals


class TestOneColumnBatchIsTheSolve:
    """``solve(b)`` is a one-column run of the batch recurrence: column 0 of
    ``solve_batch(b[:, None])`` reproduces it bit for bit."""

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    @pytest.mark.parametrize("variant", ["fp16", "fp32", "fp64"])
    def test_f3r(self, variant, backend):
        from repro.matgen import get_matrix
        from repro.sparse import diagonal_scaling

        # 4 outer iterations: 128 Richardson invocations, two weight refreshes
        matrix, _ = diagonal_scaling(get_matrix("vas_stokes_1M", "tiny"))
        b = np.random.default_rng(30).uniform(0, 1, matrix.nrows)

        def fresh():
            # Richardson's adapted weights persist across calls: each API
            # gets its own identically built solver
            return F3RSolver(matrix, preconditioner="auto",
                             config=F3RConfig(variant=variant, backend=backend))

        single = fresh().solve(b)
        column = fresh().solve_batch(b[:, None])[0]
        assert single.converged and single.iterations > 2
        _assert_bit_identical(single, column)

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_restarted_fgmres(self, poisson, backend):
        from repro.precond import JacobiPreconditioner
        from repro.solvers import RestartedFGMRES

        b = np.random.default_rng(31).uniform(0, 1, poisson.nrows)
        solver = RestartedFGMRES(poisson, JacobiPreconditioner(poisson),
                                 restart=16, tol=1e-9)
        with use_backend(backend):
            single = solver.solve(b)
            column = solver._outer.solve_batch(b[:, None])[0]
        assert single.converged and single.restarts > 0
        _assert_bit_identical(single, column)


# --------------------------------------------------------------------------- #
class TestCountersDisabledEndToEnd:
    """``REPRO_COUNTERS=0`` / ``counters_disabled()`` must change nothing but
    the recorded traffic — identical solutions, zero bytes — for single and
    batched solves."""

    def _solve_pair(self, matrix, b, batched: bool):
        solver = OuterFGMRES(matrix, ILU0Preconditioner(matrix), m=80, tol=1e-9,
                             max_restarts=1)
        if batched:
            return solver.solve_batch(b).x
        return solver.solve(b).x

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    def test_identical_solutions_and_zero_traffic(self, poisson, batched):
        rng = np.random.default_rng(7)
        b = rng.uniform(-1, 1, (poisson.nrows, 3)) if batched \
            else rng.uniform(-1, 1, poisson.nrows)
        x_on = self._solve_pair(poisson, b, batched)
        with counting() as probe:
            with counters_disabled():
                x_off = self._solve_pair(poisson, b, batched)
        assert np.array_equal(x_on, x_off)
        assert probe.total_bytes == 0
        assert probe.kernel_calls == {}

    def test_env_var_end_to_end(self, tmp_path):
        """A fresh process with REPRO_COUNTERS=0 produces the same solutions
        (single and batched) as one with counters on, and records nothing."""
        script = tmp_path / "probe.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.matgen import poisson2d\n"
            "from repro.perf import global_counter\n"
            "from repro.precond import ILU0Preconditioner\n"
            "from repro.solvers import OuterFGMRES\n"
            "A = poisson2d(12)\n"
            "b = np.random.default_rng(0).uniform(-1, 1, (A.nrows, 3))\n"
            "s = OuterFGMRES(A, ILU0Preconditioner(A), m=60, tol=1e-9)\n"
            "single = s.solve(b[:, 0]).x\n"
            "batch = s.solve_batch(b).x\n"
            "print(repr((single.sum(), np.abs(single).sum(),\n"
            "            batch.sum(), np.abs(batch).sum(),\n"
            "            global_counter().total_bytes)))\n")
        outputs = {}
        for flag in ("1", "0"):
            env = dict(os.environ, REPRO_COUNTERS=flag,
                       PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
            proc = subprocess.run([sys.executable, str(script)], text=True,
                                  capture_output=True, env=env, cwd=os.getcwd())
            assert proc.returncode == 0, proc.stderr
            outputs[flag] = eval(proc.stdout.strip())  # noqa: S307 - our own repr
        *sums_on, bytes_on = outputs["1"]
        *sums_off, bytes_off = outputs["0"]
        assert sums_on == sums_off
        assert bytes_on > 0
        assert bytes_off == 0


# --------------------------------------------------------------------------- #
class TestBatchDispatcher:
    CONFIG = F3RConfig(variant="fp64", m1=60, m2=4, m3=2, m4=2, tol=1e-7)

    def test_groups_by_fingerprint_and_caches_setups(self):
        a = poisson2d(14)
        a_twin = poisson2d(14)             # equal content, different object
        other = random_diagonally_dominant(150, nnz_per_row=5, seed=7)
        assert a.fingerprint() == a_twin.fingerprint()
        assert a.fingerprint() != other.fingerprint()
        rng = np.random.default_rng(8)
        with BatchDispatcher(self.CONFIG, nblocks=4, max_batch=8,
                             max_workers=1) as dispatcher:
            pairs = [(a, rng.uniform(-1, 1, a.nrows)),
                     (a_twin, rng.uniform(-1, 1, a.nrows)),
                     (other, rng.uniform(-1, 1, other.nrows))]
            results = dispatcher.solve_many(pairs)
        assert all(r.converged for r in results)
        stats = dispatcher.stats.summary()
        assert stats["batches"] == 2           # a + a_twin grouped together
        assert stats["cache_misses"] == 2
        assert stats["largest_batch"] == 2

    def test_cache_hit_on_second_round(self):
        a = poisson2d(14)
        rng = np.random.default_rng(9)
        with BatchDispatcher(self.CONFIG, nblocks=4, max_batch=4) as dispatcher:
            dispatcher.solve_many([(a, rng.uniform(-1, 1, a.nrows))])
            dispatcher.solve_many([(a, rng.uniform(-1, 1, a.nrows))])
        stats = dispatcher.stats.summary()
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 1

    def test_auto_dispatch_at_max_batch(self):
        a = poisson2d(14)
        rng = np.random.default_rng(10)
        with BatchDispatcher(self.CONFIG, nblocks=4, max_batch=2) as dispatcher:
            futures = [dispatcher.submit(a, rng.uniform(-1, 1, a.nrows))
                       for _ in range(2)]
            # the group filled to max_batch: it dispatches without flush()
            results = [f.result(timeout=120) for f in futures]
        assert all(r.converged for r in results)
        assert dispatcher.stats.summary()["batches"] == 1

    def test_results_keep_submission_order(self):
        a = poisson2d(14)
        rng = np.random.default_rng(11)
        rhss = [rng.uniform(-1, 1, a.nrows) for _ in range(5)]
        with BatchDispatcher(self.CONFIG, nblocks=4, max_batch=3,
                             max_workers=2) as dispatcher:
            results = dispatcher.solve_many([(a, b) for b in rhss])
        for b, result in zip(rhss, results):
            relres = np.linalg.norm(b - a.matvec(result.x, record=False)) \
                / np.linalg.norm(b)
            assert relres < 1e-7

    def test_rejects_bad_rhs_and_closed_submit(self):
        a = poisson2d(14)
        dispatcher = BatchDispatcher(self.CONFIG, nblocks=4)
        with pytest.raises(ValueError, match="rhs has shape"):
            dispatcher.submit(a, np.zeros(3))
        dispatcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            dispatcher.submit(a, np.zeros(a.nrows))

    def test_concurrent_batches_build_setup_once(self):
        # two batches of the same matrix dispatched together must share one
        # setup build (the second worker waits instead of refactorizing)
        a = poisson2d(14)
        rng = np.random.default_rng(16)
        with BatchDispatcher(self.CONFIG, nblocks=4, max_batch=2,
                             max_workers=2) as dispatcher:
            results = dispatcher.solve_many([(a, rng.uniform(-1, 1, a.nrows))
                                             for _ in range(4)])
        assert all(r.converged for r in results)
        stats = dispatcher.stats.summary()
        assert stats["batches"] == 2
        assert stats["cache_misses"] == 1

    def test_close_fails_pending_futures(self):
        a = poisson2d(14)
        dispatcher = BatchDispatcher(self.CONFIG, nblocks=4, max_batch=8)
        future = dispatcher.submit(a, np.random.default_rng(12).uniform(-1, 1, a.nrows))
        dispatcher.close()
        with pytest.raises(RuntimeError, match="closed before dispatch"):
            future.result(timeout=10)

    def test_batch_errors_propagate_to_futures(self):
        # a singular matrix makes the setup (ILU0 on a zero diagonal) or solve
        # blow up; every future of the batch must receive the exception
        bad = random_diagonally_dominant(40, nnz_per_row=3, seed=1)
        rng = np.random.default_rng(13)
        with BatchDispatcher(self.CONFIG, preconditioner="jacobi",
                             max_batch=8) as dispatcher:
            future = dispatcher.submit(bad, rng.uniform(-1, 1, 40))
            # monkeypatch-free failure injection: close the pool's solver path
            executor = dispatcher._members["local"].executor
            executor._precond_spec = ("no-such-preconditioner", None, 1.0)
            dispatcher.flush()
            with pytest.raises(Exception):
                future.result(timeout=120)


# --------------------------------------------------------------------------- #
class TestFusedBlockJacobi:
    """Batched block-Jacobi application runs on fused block-diagonal factors;
    it must match the per-block loop bit-for-bit (including after precision
    casts) and record identical traffic."""

    @pytest.mark.parametrize("precision", ["fp16", "fp32", "fp64"])
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_fused_apply_matches_per_block_loop(self, precision, backend,
                                                spd_matrix, nonsym_matrix):
        from repro.precond import BlockJacobiIC0, BlockJacobiILU0

        rng = np.random.default_rng(14)
        for cls, matrix in ((BlockJacobiIC0, spd_matrix),
                            (BlockJacobiILU0, nonsym_matrix)):
            precond = cls(matrix, nblocks=4).astype(precision)
            r = rng.uniform(-1, 1, (matrix.nrows, 4)).astype(np.float32)
            with use_backend(backend):
                looped = np.stack(
                    [precond._apply(np.ascontiguousarray(r[:, j]))
                     for j in range(4)], axis=1)
                batched = precond._apply(r)
            assert np.array_equal(looped, batched, equal_nan=True)

    def test_fused_traffic_matches_per_block_loop(self, spd_matrix):
        from repro.precond import BlockJacobiIC0

        precond = BlockJacobiIC0(spd_matrix, nblocks=4)
        r = np.random.default_rng(15).uniform(-1, 1, (spd_matrix.nrows, 3))

        def traffic(fn):
            with counting() as counter:
                fn()
            return counter.summary()

        with use_backend("fast"):
            looped = traffic(lambda: [precond._apply(np.ascontiguousarray(r[:, j]))
                                      for j in range(3)])
            batched = traffic(lambda: precond._apply(r))
        assert looped == batched

    def test_fuse_block_diagonal_merges_levels(self):
        from repro.sparse import CSRMatrix, TriangularFactor, fuse_block_diagonal

        blocks = [
            TriangularFactor(CSRMatrix.from_dense(np.tril(np.full((3, 3), 2.0))),
                             lower=True),
            TriangularFactor(CSRMatrix.from_dense(np.eye(2) * 3.0), lower=True),
        ]
        fused = fuse_block_diagonal(blocks)
        assert fused.nrows == 5
        assert fused.nlevels == max(b.nlevels for b in blocks)
        b = np.arange(1.0, 6.0)
        expected = np.concatenate([blocks[0].solve(b[:3], record=False),
                                   blocks[1].solve(b[3:], record=False)])
        assert np.array_equal(fused.solve(b, record=False), expected)

    def test_fuse_rejects_mismatched_factors(self):
        from repro.sparse import CSRMatrix, TriangularFactor, fuse_block_diagonal

        lower = TriangularFactor(CSRMatrix.from_dense(np.eye(2)), lower=True)
        upper = TriangularFactor(CSRMatrix.from_dense(np.eye(2)), lower=False)
        with pytest.raises(ValueError, match="must agree"):
            fuse_block_diagonal([lower, upper])
        with pytest.raises(ValueError, match="at least one"):
            fuse_block_diagonal([])
