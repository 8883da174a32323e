"""Workspace arenas: no steady-state allocation, and safe under concurrency.

The compiled-plan hot loop pre-binds kernels and pre-sizes its workspace
arenas during the first (warm-up) solves; after that, a steady-state F3R
solve must request **zero** new arena allocations — the process-wide
:func:`repro.backends.workspace.arena_alloc_count` stays flat — and must not
leak per-iteration garbage (net traced memory growth across repeated
identical solves stays within noise).

Every object with scratch state (matrices, factors, stencil operators,
solver levels, compiled plans) carries *per-thread* arenas
(:class:`~repro.backends.workspace.ThreadLocalWorkspace`), which is what
lets ``max_workers > 1`` dispatcher threads share one cached solver.  The
concurrency hammers use one shared object from several threads at once and
require every concurrent result to be bit-identical to the serial one; a
shared scratch buffer anywhere in that path shows up as a corrupted result.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from repro.backends import get_backend, use_backend
from repro.backends.workspace import arena_alloc_count
from repro.core import F3RConfig, F3RSolver
from repro.matgen import hpcg_operator, hpgmp_matrix, poisson2d
from repro.plans import plan_for
from repro.precision import Precision
from repro.sparse.triangular import TriangularFactor

pytestmark = pytest.mark.tier1


def _warm_solver(matrix, **kwargs):
    cfg = F3RConfig(variant="fp16", backend="fast")
    solver = F3RSolver(matrix, preconditioner="auto", config=cfg, **kwargs)
    return solver


class TestAllocationRegression:
    @pytest.mark.parametrize("problem", ["stencil", "assembled"])
    def test_zero_arena_allocations_after_warmup(self, problem):
        if problem == "stencil":
            matrix = hpcg_operator(10)
            solver = _warm_solver(matrix)
        else:
            matrix = poisson2d(24)
            solver = _warm_solver(matrix, nblocks=4)
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, matrix.nrows)
        solver.solve(b)
        solver.solve(b)                          # plans, arenas, casts warm
        before = arena_alloc_count()
        for _ in range(3):
            result = solver.solve(b)
        assert arena_alloc_count() == before, \
            "steady-state solve allocated fresh arena arrays"
        assert result.converged

    def test_no_traced_memory_growth_across_warm_solves(self):
        matrix = poisson2d(24)
        solver = _warm_solver(matrix, nblocks=4)
        rng = np.random.default_rng(1)
        b = rng.uniform(-1, 1, matrix.nrows)
        solver.solve(b)
        solver.solve(b)
        gc.collect()
        tracemalloc.start()
        solver.solve(b)
        gc.collect()
        first, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            solver.solve(b)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # repeated identical solves must not accumulate state; allow a small
        # slack for interpreter-level noise (caches, interned objects)
        assert current - first < 128 * 1024, \
            f"warm solves grew traced memory by {current - first} bytes"

    def test_one_staging_set_per_name_across_batch_widths(self):
        """A served solver sees many batch widths; its Richardson workspace
        keeps one staging buffer per name, re-sliced for each width, instead
        of one set per width seen."""
        from repro.matgen import get_matrix
        from repro.solvers import RichardsonLevel
        from repro.sparse import diagonal_scaling

        matrix, _ = diagonal_scaling(get_matrix("vas_stokes_1M", "tiny"))
        solver = _warm_solver(matrix, nblocks=4)
        level = solver._outer
        while not isinstance(level, RichardsonLevel):
            level = level.child
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 4):
            solver.solve_batch(rng.uniform(-1, 1, (matrix.nrows, k)))
        names = [key[0] for key in level._workspace.workspace._buffers]
        assert names and len(names) == len(set(names)), sorted(names)


# ---------------------------------------------------------------------- #
# One shared object, four threads
# ---------------------------------------------------------------------- #
HAMMER_THREADS = 4
ROUNDS = 5

#: ``None`` is the default engine (``native`` where it builds)
ENGINES = [None, "fast"]


def _engine(name):
    return nullcontext() if name is None else use_backend(name)


def _hammer(fn, nthreads=HAMMER_THREADS):
    """Run ``fn(thread_index)`` concurrently; re-raise the first failure."""
    barrier = threading.Barrier(nthreads)
    failures = []

    def run(i):
        try:
            barrier.wait(timeout=30)
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


class TestConcurrentCallers:
    @pytest.mark.parametrize("engine", ENGINES, ids=["default", "fast"])
    def test_one_plan_hammered_from_four_threads(self, engine):
        """One compiled plan, four threads, every concurrent
        apply/residual bit-identical to serial."""
        matrix = poisson2d(32)
        plan = plan_for(matrix, Precision.FP64, backend=get_backend(engine))
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, matrix.ncols)
        v = rng.uniform(-1, 1, matrix.nrows)
        xb = rng.uniform(-1, 1, (matrix.ncols, 3))
        want_apply = plan.apply(x)
        want_resid = plan.residual(v, x)
        want_batch = plan.apply_batch(xb)

        def work(i):
            for _ in range(ROUNDS):
                assert np.array_equal(plan.apply(x), want_apply)
                assert np.array_equal(plan.residual(v, x), want_resid)
                assert np.array_equal(plan.apply_batch(xb), want_batch)

        _hammer(work)

    def test_one_solver_hammered_from_four_threads(self):
        """One cached solver under concurrent solves (the dispatcher's
        sharing pattern).  Richardson's adaptive weights are shared
        *algorithmic* state (solves on one solver are not idempotent with
        them), so the static-weight strategy is pinned — any difference
        then indicts scratch arenas."""
        matrix = poisson2d(32)
        config = F3RConfig(variant="fp64", backend="fast",
                           adaptive_weight=False)
        solver = F3RSolver(matrix, preconditioner="auto", config=config,
                           nblocks=4)
        rng = np.random.default_rng(8)
        b = rng.uniform(-1, 1, matrix.nrows)
        want = solver.solve(b).x

        def work(i):
            for _ in range(ROUNDS):
                got = solver.solve(b)
                assert np.array_equal(got.x, want)

        _hammer(work)

    @pytest.mark.parametrize("engine", ENGINES, ids=["default", "fast"])
    def test_shared_stencil_and_factor(self, engine):
        with _engine(engine):
            op = hpcg_operator(8)
            lower, _ = get_backend().ilu0_factor(hpgmp_matrix(6))
            factor = TriangularFactor(lower, lower=True, unit_diagonal=True)
            rng = np.random.default_rng(9)
            x = rng.uniform(-1, 1, op.nrows)
            b = rng.uniform(-1, 1, factor.nrows)
            want_apply = op.apply(x)
            want_solve = factor.solve(b)

        def work(i):
            with _engine(engine):
                for _ in range(ROUNDS):
                    assert np.array_equal(op.apply(x), want_apply)
                    assert np.array_equal(factor.solve(b), want_solve)

        _hammer(work)
