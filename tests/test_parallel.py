"""Deterministic multicore execution: bit-identity, counters, pool, tuning.

The parallel layer's headline contract: for **every** parallel kernel and
any thread count, results are bit-identical to ``REPRO_THREADS=1`` — each
partition computes its output rows with exactly the serial arithmetic and
writes disjoint slices.  These tests sweep thread counts (forcing the
partitioned paths even on test-sized operators), pin counter parity under
partitioning, and exercise the pool/budget machinery and the thread-count
autotuner directly.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import par
from repro.backends import get_backend, use_backend
from repro.backends.workspace import Workspace
from repro.core import F3RConfig, F3RSolver
from repro.matgen import hpcg_operator, hpgmp_matrix, poisson2d
from repro.par.partition import (
    balanced_boundaries,
    csr_partition,
    level_partition,
    span_partition,
)
from repro.par.pool import _parse_threads
from repro.perf.counters import counting
from repro.plans import clear_plan_cache, plan_for
from repro.plans.autotune import autotune_stats, clear_autotune_cache
from repro.precision import Precision
from repro.serve import BatchDispatcher
from repro.sparse import SlicedEllMatrix
from repro.sparse.triangular import TriangularFactor, fuse_block_diagonal

pytestmark = pytest.mark.tier1

THREADS = [2, 4, "auto"]


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def _forced(spec):
    """Force the partitioned paths: 'auto' resolves through the env parser."""
    return par.force_threads(_parse_threads(spec))


# ---------------------------------------------------------------------- #
# Bit-identity sweep: every parallel kernel, thread counts {1, 2, 4, auto}
# ---------------------------------------------------------------------- #
class TestKernelBitIdentity:
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16"])
    def test_csr_spmv_spmm(self, rng, threads, precision):
        matrix = poisson2d(40).astype(precision)
        x = rng.uniform(-1, 1, matrix.ncols).astype(matrix.values.dtype)
        xb = rng.uniform(-1, 1, (matrix.ncols, 3)).astype(matrix.values.dtype)
        y1, yb1 = matrix.matvec(x), matrix.matmat(xb)
        with _forced(threads):
            y, yb = matrix.matvec(x), matrix.matmat(xb)
        assert np.array_equal(y1, y)
        assert np.array_equal(yb1, yb)

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("precision", ["fp64", "fp16"])
    def test_ell_spmv_spmm(self, rng, threads, precision):
        ell = SlicedEllMatrix(poisson2d(40), chunk_size=32).astype(precision)
        x = rng.uniform(-1, 1, ell.ncols).astype(ell.values.dtype)
        xb = rng.uniform(-1, 1, (ell.ncols, 3)).astype(ell.values.dtype)
        y1, yb1 = ell.matvec(x), ell.matmat(xb)
        with _forced(threads):
            y, yb = ell.matvec(x), ell.matmat(xb)
        assert np.array_equal(y1, y)
        assert np.array_equal(yb1, yb)

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("precision", ["fp64", "fp16"])
    def test_stencil_separable_sweep(self, rng, threads, precision):
        op = hpcg_operator(10).astype(precision)      # box-separable 27-point
        assert op.box_separable() is not None
        x = rng.uniform(-1, 1, op.nrows).astype(op.dtype)
        xb = rng.uniform(-1, 1, (op.nrows, 3)).astype(op.dtype)
        y1, yb1 = op.apply(x), op.apply_batch(xb)
        with _forced(threads):
            y, yb = op.apply(x), op.apply_batch(xb)
        assert np.array_equal(y1, y)
        assert np.array_equal(yb1, yb)

    @pytest.mark.parametrize("threads", THREADS)
    def test_stencil_slab_accumulation(self, rng, threads):
        from repro.matgen import convection_diffusion_2d_operator

        op = convection_diffusion_2d_operator(24)     # upwind: not separable
        assert op.box_separable() is None
        x = rng.uniform(-1, 1, op.nrows)
        xb = rng.uniform(-1, 1, (op.nrows, 2))
        y1, yb1 = op.apply(x), op.apply_batch(xb)
        with _forced(threads):
            y, yb = op.apply(x), op.apply_batch(xb)
        assert np.array_equal(y1, y)
        assert np.array_equal(yb1, yb)

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("precision", ["fp64", "fp16"])
    def test_trsv_trsm_within_level(self, rng, threads, precision):
        lower, upper = get_backend().ilu0_factor(hpgmp_matrix(7))
        factors = [TriangularFactor(lower, lower=True, unit_diagonal=True),
                   TriangularFactor(upper, lower=False)]
        factors.append(fuse_block_diagonal(
            [factors[0], TriangularFactor(lower, lower=True, unit_diagonal=True)]))
        for factor in factors:
            factor = factor.astype(precision)
            b = rng.uniform(-1, 1, factor.nrows).astype(np.float64)
            bb = rng.uniform(-1, 1, (factor.nrows, 3))
            x1, xb1 = factor.solve(b), factor.solve_batch(bb)
            with _forced(threads):
                x, xb = factor.solve(b), factor.solve_batch(bb)
            assert np.array_equal(x1, x)
            assert np.array_equal(xb1, xb)

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float16])
    def test_residual_update_and_batch(self, rng, threads, dtype):
        backend = get_backend()
        v = rng.uniform(-1, 1, 3000).astype(dtype)
        az = rng.uniform(-1, 1, 3000).astype(dtype)
        vb = rng.uniform(-1, 1, (1500, 4)).astype(dtype)
        azb = rng.uniform(-1, 1, (1500, 4)).astype(dtype)
        r1 = backend.residual_update(v, az)
        rb1 = backend.residual_update(vb, azb)
        with _forced(threads):
            r = backend.residual_update(v, az)
            rb = backend.residual_update(vb, azb)
        assert np.array_equal(r1, r)
        assert np.array_equal(rb1, rb)

    @pytest.mark.parametrize("threads", THREADS)
    def test_fused_spmv_spmm_axpy(self, rng, threads):
        matrix = poisson2d(40)
        plan = plan_for(matrix, Precision.FP64)
        x = rng.uniform(-1, 1, matrix.ncols)
        v = rng.uniform(-1, 1, matrix.nrows)
        xb = rng.uniform(-1, 1, (matrix.ncols, 3))
        vb = rng.uniform(-1, 1, (matrix.nrows, 3))
        r1 = plan.residual(v, x)
        rb1 = plan.residual_batch(vb, xb)
        with _forced(threads):
            r = plan.residual(v, x)
            rb = plan.residual_batch(vb, xb)
        assert np.array_equal(r1, r)
        assert np.array_equal(rb1, rb)

    def test_parallel_paths_actually_ran(self, rng):
        """The sweep must not pass vacuously via serial fallbacks."""
        matrix = poisson2d(40)
        before = par.pool_stats()["parallel_runs"]
        with _forced(4):
            matrix.matvec(rng.uniform(-1, 1, matrix.ncols))
        assert par.pool_stats()["parallel_runs"] > before


# ---------------------------------------------------------------------- #
# End-to-end: solves and serving are thread-count invariant
# ---------------------------------------------------------------------- #
class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("variant", ["fp64", "fp16"])
    @pytest.mark.parametrize("threads", [2, 4])
    def test_f3r_solves_identical(self, rng, variant, threads):
        config = F3RConfig(variant=variant, backend="fast")
        problems = [(poisson2d(24), {"nblocks": 4}), (hpcg_operator(8), {})]
        for matrix, kwargs in problems:
            b = rng.uniform(-1, 1, matrix.nrows)
            # fresh solvers per run: the adaptive Richardson weights carry
            # state across invocations by design, so reusing one solver
            # would compare different algorithms, not different threading
            serial = F3RSolver(matrix, preconditioner="auto", config=config,
                               **kwargs).solve(b)
            with _forced(threads):
                parallel = F3RSolver(matrix, preconditioner="auto",
                                     config=config, **kwargs).solve(b)
            assert parallel.iterations == serial.iterations
            assert np.array_equal(parallel.x, serial.x)

    def test_repro_threads_knob_changes_nothing(self, rng):
        """`set_threads` (the REPRO_THREADS knob) sweeps are bit-identical —
        including 'auto' — on a mid-size solve where heuristics may engage."""
        matrix = poisson2d(48)
        b = rng.uniform(-1, 1, matrix.nrows)
        config = F3RConfig(variant="fp64", backend="fast")
        reference = F3RSolver(matrix, preconditioner="auto", config=config,
                              nblocks=4).solve(b)
        for spec in [2, 4, "auto"]:
            clear_plan_cache()
            clear_autotune_cache()
            with par.use_threads(spec):
                result = F3RSolver(matrix, preconditioner="auto", config=config,
                                   nblocks=4).solve(b)
            assert np.array_equal(result.x, reference.x), spec
        clear_plan_cache()
        clear_autotune_cache()

    def test_dispatcher_results_and_pool_stats(self, rng):
        matrix = poisson2d(24)
        rhs = [rng.uniform(-1, 1, matrix.nrows) for _ in range(6)]
        config = F3RConfig(variant="fp64", backend="fast")

        def serve(threads):
            # a fresh dispatcher per run and one batch per fingerprint: the
            # adaptive Richardson weights are shared *across* batches of one
            # cached solver by design, so multi-batch runs depend on batch
            # interleaving — with a single batch, only the thread budget
            # differs between the two executions
            with par.use_threads(threads):
                with BatchDispatcher(config, max_batch=6, max_workers=2) as disp:
                    futures = [disp.submit(matrix, b) for b in rhs]
                    disp.drain()
                    results = [f.result() for f in futures]
                summary = disp.stats.summary()
            return results, summary

        serial, _ = serve(1)
        results, summary = serve(2)
        for got, want in zip(results, serial):
            assert np.array_equal(got.x, want.x)
        pool = summary["pool"]
        assert pool["budget"] == 2
        assert pool["peak_consumers"] >= 1
        assert pool["active_consumers"] == 0
        assert "thread_verdicts" in summary["autotune"]


# ---------------------------------------------------------------------- #
# Counter parity: partitioning is invisible to the traffic model
# ---------------------------------------------------------------------- #
class TestCounterParity:
    @pytest.mark.parametrize("precision", ["fp64", "fp16"])
    def test_kernel_counters_match_serial(self, rng, precision):
        matrix = poisson2d(32).astype(precision)
        ell = SlicedEllMatrix(poisson2d(32)).astype(precision)
        op = hpcg_operator(8).astype(precision)
        lower, _ = get_backend().ilu0_factor(hpgmp_matrix(6))
        factor = TriangularFactor(lower, lower=True, unit_diagonal=True)
        x = rng.uniform(-1, 1, matrix.ncols).astype(matrix.values.dtype)
        xs = rng.uniform(-1, 1, op.nrows).astype(op.dtype)
        xb = rng.uniform(-1, 1, (matrix.ncols, 3)).astype(matrix.values.dtype)
        b = rng.uniform(-1, 1, factor.nrows)

        def workload():
            matrix.matvec(x)
            matrix.matmat(xb)
            ell.matvec(x)
            op.apply(xs)
            factor.solve(b)
            get_backend().residual_update(x.copy(), x)

        with counting() as serial:
            workload()
        with _forced(4), counting() as parallel:
            workload()
        assert parallel.summary() == serial.summary()


# ---------------------------------------------------------------------- #
# Partition plans
# ---------------------------------------------------------------------- #
class TestPartitioning:
    def test_balanced_boundaries_cover_and_balance(self):
        weights = np.array([0, 0, 10, 10, 0, 10, 0, 0, 10, 0], dtype=np.int64)
        cumulative = np.zeros(weights.size + 1, dtype=np.int64)
        np.cumsum(weights, out=cumulative[1:])
        bounds = balanced_boundaries(cumulative, 4)
        assert bounds[0] == 0 and bounds[-1] == weights.size
        assert np.all(np.diff(bounds) > 0)
        work = [int(cumulative[hi] - cumulative[lo])
                for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert max(work) <= 20           # ~total/4 rounded up to row grain

    def test_csr_partition_local_indptr(self):
        matrix = poisson2d(12)
        slabs = csr_partition(matrix.indptr, 3)
        assert slabs[0][0] == 0 and slabs[-1][1] == matrix.nrows
        for r0, r1, s0, s1, local in slabs:
            assert local.dtype == matrix.indptr.dtype
            assert local[0] == 0 and local[-1] == s1 - s0
            assert np.array_equal(local,
                                  matrix.indptr[r0:r1 + 1] - matrix.indptr[r0])

    def test_span_partition_alignment(self):
        spans = span_partition(100, 3, align=8)
        assert spans[0][0] == 0 and spans[-1][1] == 100
        for lo, hi in spans:
            assert lo % 8 == 0
        assert [hi for _, hi in spans[:-1]] == [lo for lo, _ in spans[1:]]

    def test_level_partition_gather_spans(self):
        rowptr = np.array([0, 0, 2, 5, 5, 9, 14], dtype=np.int64)
        rows = np.array([1, 2, 3, 4, 5], dtype=np.int32)
        chunks = level_partition(rowptr, rows, nparts=2, min_rows=1)
        assert chunks is not None
        assert chunks[0][0] == 0 and chunks[-1][1] == rows.size
        total = sum(g1 - g0 for _, _, g0, g1, _, _ in chunks)
        assert total == 14

    def test_partition_plans_cached_on_state(self):
        matrix = poisson2d(16)
        with _forced(3):
            matrix.matvec(np.ones(matrix.ncols))
            first = matrix._par._parts[("csr", 3)]
            matrix.matvec(np.ones(matrix.ncols))
            assert matrix._par._parts[("csr", 3)] is first


# ---------------------------------------------------------------------- #
# Pool, budget and configuration
# ---------------------------------------------------------------------- #
class TestPoolAndBudget:
    def test_parse_threads(self):
        assert _parse_threads(None) == 1
        assert _parse_threads("1") == 1
        assert _parse_threads("6") == 6
        assert _parse_threads("auto") >= 1
        assert _parse_threads(0) == 1
        with pytest.raises(ValueError):
            _parse_threads("lots")

    def test_default_is_serial(self, monkeypatch):
        # the budget the module resolves at import, with REPRO_THREADS unset
        # (a REPRO_THREADS sweep of this suite must not change the answer)
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        with par.use_threads(_parse_threads(os.environ.get("REPRO_THREADS"))):
            assert par.configured_threads() == 1
            assert par.effective_threads() == 1

    def test_budget_divided_among_consumers(self):
        with par.use_threads(8):
            assert par.effective_threads() == 8
            with par.pool_consumer():
                assert par.effective_threads() == 8
                with par.pool_consumer():
                    assert par.effective_threads() == 4   # 8 // 2 consumers
            assert par.active_consumers() == 0

    def test_workers_never_nest(self):
        seen = []
        with par.use_threads(4):
            par.run_tasks([lambda: seen.append(par.effective_threads())
                           for _ in range(3)])
        # task 0 runs inline on the caller (full budget); pool workers get 1
        assert sorted(seen)[:2] == [1, 1]

    def test_run_tasks_propagates_exceptions(self):
        def boom():
            raise RuntimeError("slab failed")

        with pytest.raises(RuntimeError, match="slab failed"):
            par.run_tasks([boom, lambda: None, boom])

    def test_force_threads_is_thread_local(self):
        results = {}

        def other():
            results["other"] = par.forced_threads()

        with par.force_threads(4):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            assert par.forced_threads() == 4
        assert results["other"] is None
        assert par.forced_threads() is None


# ---------------------------------------------------------------------- #
# Thread-count autotuning (plan compile)
# ---------------------------------------------------------------------- #
class TestThreadAutotune:
    def setup_method(self):
        clear_plan_cache()
        clear_autotune_cache()

    teardown_method = setup_method

    def test_small_operator_pinned_serial(self):
        matrix = poisson2d(16)               # 256 rows < tuning floor
        with par.use_threads(4):
            plan = plan_for(matrix, Precision.FP64)
        assert plan.threads == 1
        assert plan.par.threads["spmv"] == 1
        assert plan.par.threads["spmm"] == 1

    def test_verdict_measured_and_cached(self):
        matrix = poisson2d(80)               # 6400 rows: inside the budget
        with par.use_threads(2):
            plan_for(matrix, Precision.FP64)
            stats = autotune_stats()
            assert stats["thread_measured"] == 1
            assert sum(stats["thread_verdicts"].values()) == 1
            clear_plan_cache()               # same fingerprint → cached verdict
            plan = plan_for(matrix, Precision.FP64)
            assert autotune_stats()["thread_measured"] == 1
            assert autotune_stats()["thread_hits"] == 1
            assert plan.threads is not None

    def test_verdict_respected_by_kernels(self, rng=np.random.default_rng(0)):
        matrix = poisson2d(80)
        with par.use_threads(4):
            plan = plan_for(matrix, Precision.FP64)
            x = rng.uniform(-1, 1, matrix.ncols)
            before = par.pool_stats()["parallel_runs"]
            plan.apply(x)
            after = par.pool_stats()["parallel_runs"]
        if plan.threads == 1:
            assert after == before           # pinned serial: no fan-out
        else:
            assert after > before

    def test_serial_budget_skips_tuning(self):
        matrix = poisson2d(80)
        with par.use_threads(1):
            plan = plan_for(matrix, Precision.FP64)
        assert plan.threads is None
        assert autotune_stats()["thread_measured"] == 0
