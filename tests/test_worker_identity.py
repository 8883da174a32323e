"""Kernel results are a pure function of their inputs, on every engine and
every thread.

``max_workers > 1`` dispatcher threads call the same kernels on the same
shared matrices, factors, stencil operators and compiled plans as the
caller thread; each thread works in its own arena
(:class:`~repro.backends.workspace.ThreadLocalWorkspace`).  For **every**
kernel family, on every engine and storage precision, these tests require:

- the result computed concurrently on each of four worker threads is
  bit-identical to the caller thread's serial result;
- the engine agrees with the ``reference`` oracle — exactly for the
  triangular solves, whose operation order is identical on every engine,
  and to the per-precision tolerances of ``test_backends_equivalence.py``
  for the summation-order-sensitive products;
- the traffic counters a workload records do not depend on the engine or on
  the thread it runs on.

End-to-end, fresh F3R solves on worker threads and ``max_workers=2``
dispatchers reproduce the serial answer bit for bit.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

import numpy as np
import pytest

import repro
from repro.backends import available_backends, get_backend, use_backend
from repro.backends.workspace import ThreadLocalWorkspace
from repro.core import F3RConfig, F3RSolver
from repro.matgen import (
    convection_diffusion_2d_operator,
    hpcg_operator,
    hpgmp_matrix,
    poisson2d,
)
from repro.perf.counters import counting
from repro.operators import AssembledOperator, as_operator
from repro.plans import plan_for
from repro.precision import LevelPrecision, Precision
from repro.precond import BlockJacobiILU0
from repro.serve import BatchDispatcher
from repro.solvers import RichardsonLevel
from repro.sparse.triangular import TriangularFactor, fuse_block_diagonal

pytestmark = pytest.mark.tier1

WORKERS = 4

#: every kernel engine; ``native`` where it builds on this host
ENGINES = ["reference", "fast"] + (
    ["native"] if "native" in available_backends() else [])

PRECISIONS = ["fp64", "fp32", "fp16"]

#: summation-order-sensitive kernels agree with the oracle to these
TOLS = {
    "fp16": dict(rtol=2e-2, atol=2e-2),
    "fp32": dict(rtol=1e-5, atol=1e-6),
    "fp64": dict(rtol=1e-12, atol=1e-13),
}

DTYPES = {"fp64": np.float64, "fp32": np.float32, "fp16": np.float16}


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def _on_workers(engine, fn, nthreads=WORKERS):
    """``fn()`` run concurrently on ``nthreads`` threads under ``engine``
    (``None``: the default); returns each thread's result, re-raises the
    first failure."""
    barrier = threading.Barrier(nthreads)
    results = [None] * nthreads
    failures = []

    def run(i):
        try:
            with nullcontext() if engine is None else use_backend(engine):
                barrier.wait(timeout=30)
                results[i] = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return results


def _same_bits(a, b) -> bool:
    """Whether ``a`` and ``b`` are the same array bit for bit: a −0 where the
    other has +0, or another NaN payload, is a difference."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _check(engine, fn, exact=False, precision="fp64"):
    """Serial result of ``fn`` on ``engine``; every worker-thread result
    must equal it bit for bit, and it must agree with the oracle."""
    with use_backend(engine):
        want = fn()
    for got in _on_workers(engine, fn):
        for w, g in zip(want, got, strict=True):
            assert _same_bits(w, g)
    with use_backend("reference"):
        oracle = fn()
    for w, o in zip(want, oracle, strict=True):
        assert w.dtype == o.dtype
        if exact:
            assert _same_bits(w, o)
        else:
            np.testing.assert_allclose(w.astype(np.float64), o.astype(np.float64),
                                       **TOLS[precision])
    return want


# ---------------------------------------------------------------------- #
# Every kernel family: worker threads and the oracle
# ---------------------------------------------------------------------- #
class TestKernelWorkerIdentity:
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_csr_spmv_spmm(self, rng, engine, precision):
        matrix = poisson2d(40).astype(precision)
        x = rng.uniform(-1, 1, matrix.ncols).astype(matrix.values.dtype)
        xb = rng.uniform(-1, 1, (matrix.ncols, 3)).astype(matrix.values.dtype)
        _check(engine, lambda: (matrix.matvec(x), matrix.matmat(xb)),
               precision=precision)

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_stencil_separable_sweep(self, rng, engine, precision):
        op = hpcg_operator(10).astype(precision)      # box-separable 27-point
        assert op.box_separable() is not None
        x = rng.uniform(-1, 1, op.nrows).astype(op.dtype)
        xb = rng.uniform(-1, 1, (op.nrows, 3)).astype(op.dtype)
        _check(engine, lambda: (op.apply(x), op.apply_batch(xb)),
               precision=precision)

    @pytest.mark.parametrize("precision", ["fp64", "fp16"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_stencil_slab_accumulation(self, rng, engine, precision):
        op = convection_diffusion_2d_operator(24).astype(precision)
        assert op.box_separable() is None             # upwind: not separable
        x = rng.uniform(-1, 1, op.nrows).astype(op.dtype)
        xb = rng.uniform(-1, 1, (op.nrows, 2)).astype(op.dtype)
        _check(engine, lambda: (op.apply(x), op.apply_batch(xb)),
               precision=precision)

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_trsv_trsm_within_level(self, rng, engine, precision):
        lower, upper = get_backend("reference").ilu0_factor(hpgmp_matrix(7))
        unit = TriangularFactor(lower, lower=True, unit_diagonal=True)
        factors = [unit, TriangularFactor(upper, lower=False),
                   fuse_block_diagonal(
                       [unit, TriangularFactor(lower, lower=True,
                                               unit_diagonal=True)])]
        for factor in factors:
            factor = factor.astype(precision)
            b = rng.uniform(-1, 1, factor.nrows)
            bb = rng.uniform(-1, 1, (factor.nrows, 3))
            _check(engine, lambda: (factor.solve(b), factor.solve_batch(bb)),
                   exact=True)

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_residual_update_and_batch(self, rng, engine, precision):
        dtype = DTYPES[precision]
        v = rng.uniform(-1, 1, 3000).astype(dtype)
        az = rng.uniform(-1, 1, 3000).astype(dtype)
        vb = rng.uniform(-1, 1, (1500, 4)).astype(dtype)
        azb = rng.uniform(-1, 1, (1500, 4)).astype(dtype)

        def run():
            backend = get_backend()
            return backend.residual_update(v, az), backend.residual_update(vb, azb)

        _check(engine, run, exact=True)

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fused_spmv_spmm_axpy(self, rng, engine, precision):
        matrix = poisson2d(40)
        prec = Precision(precision)
        dtype = DTYPES[precision]
        x = rng.uniform(-1, 1, matrix.ncols).astype(dtype)
        v = rng.uniform(-1, 1, matrix.nrows).astype(dtype)
        xb = rng.uniform(-1, 1, (matrix.ncols, 3)).astype(dtype)
        vb = rng.uniform(-1, 1, (matrix.nrows, 3)).astype(dtype)

        def run():
            plan = plan_for(matrix, prec, backend=get_backend())
            return plan.residual(v, x), plan.residual_batch(vb, xb)

        _check(engine, run, precision=precision)

    @pytest.mark.skipif("native" not in ENGINES,
                        reason="the native engine does not build on this host")
    @pytest.mark.parametrize("mat,vec", [("fp16", "fp32"), ("fp32", "fp32"),
                                         ("fp64", "fp64")])
    def test_compiled_products_on_one_shared_plan(self, rng, mat, vec):
        """``native``'s fp16-stored x fp32, fp32 and fp64 products and fused
        residuals on one plan shared by four threads: every thread's bits
        are the caller's, and ``fast``'s."""
        op = AssembledOperator(poisson2d(40)).astype(Precision(mat))
        dtype = DTYPES[vec]
        x = rng.uniform(-1, 1, op.ncols).astype(dtype)
        v = rng.uniform(-1, 1, op.nrows).astype(dtype)
        xb = rng.uniform(-1, 1, (op.ncols, 3)).astype(dtype)
        vb = rng.uniform(-1, 1, (op.nrows, 3)).astype(dtype)
        plans = {engine: plan_for(op, Precision(vec), backend=get_backend(engine))
                 for engine in ("native", "fast")}
        assert plans["native"].kind == "csr"

        def run(plan):
            return (plan.apply(x), plan.apply(xb), plan.residual(v, x),
                    plan.residual(vb, xb))

        want = run(plans["native"])
        for got in _on_workers("native", lambda: run(plans["native"])):
            for w, g in zip(want, got, strict=True):
                assert _same_bits(w, g)
        for w, f in zip(want, run(plans["fast"]), strict=True):
            assert _same_bits(w, f)

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_richardson_invocations(self, rng, engine, precision):
        """R^m4 on one shared level running uniformly in ``precision`` (no
        refresh inside the runs): ``native`` runs its compiled sweep on
        every thread, the other engines the level's loop.  The fp16 sweep
        equals ``reference`` exactly; the fp32 / fp64 residuals sum in
        scipy's order, so those agree with it to tolerance."""
        p = Precision(precision)
        matrix = hpgmp_matrix(7)
        a = as_operator(matrix).astype(p)
        m = BlockJacobiILU0(matrix, nblocks=4).astype(p)
        level = RichardsonLevel(a, m, m=2, cycle=10 ** 9,
                                precisions=LevelPrecision(p, p, p))
        level.weights[:] = [0.8, 1.2]
        dtype = np.float32 if p is Precision.FP16 else DTYPES[precision]
        v = rng.uniform(-1, 1, (matrix.nrows, 1)).astype(dtype)
        vb = rng.uniform(-1, 1, (matrix.nrows, 3)).astype(dtype)
        _check(engine, lambda: (level.apply_batch(v), level.apply_batch(vb)),
               exact=p is Precision.FP16, precision=precision)
        swept = [sweep is not None for (backend, *_), sweep in level._sweeps.items()
                 if backend is get_backend(engine)]
        assert swept == [engine == "native"] * 2


# ---------------------------------------------------------------------- #
# Traffic counters: engine- and thread-invariant
# ---------------------------------------------------------------------- #
class TestCounterParity:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_kernel_counters_match_across_engines_and_threads(self, rng,
                                                              precision):
        matrix = poisson2d(32).astype(precision)
        op = hpcg_operator(8).astype(precision)
        lower, _ = get_backend("reference").ilu0_factor(hpgmp_matrix(6))
        factor = TriangularFactor(lower, lower=True, unit_diagonal=True)
        x = rng.uniform(-1, 1, matrix.ncols).astype(matrix.values.dtype)
        xs = rng.uniform(-1, 1, op.nrows).astype(op.dtype)
        xb = rng.uniform(-1, 1, (matrix.ncols, 3)).astype(matrix.values.dtype)
        b = rng.uniform(-1, 1, factor.nrows)

        def workload():
            with counting() as counter:
                matrix.matvec(x)
                matrix.matmat(xb)
                op.apply(xs)
                factor.solve(b)
                get_backend().residual_update(x.copy(), x)
            return counter.summary()

        with use_backend("reference"):
            want = workload()
        assert sum(want["kernel_calls"].values()) > 0
        for engine in ENGINES:
            with use_backend(engine):
                assert workload() == want, engine
            assert all(got == want for got in _on_workers(engine, workload)), engine


# ---------------------------------------------------------------------- #
# End to end: solves and serving on worker threads
# ---------------------------------------------------------------------- #
class TestEndToEndWorkerIdentity:
    @pytest.mark.parametrize("variant", PRECISIONS)
    @pytest.mark.parametrize("engine", [None, "fast"], ids=["default", "fast"])
    def test_f3r_solves_identical(self, rng, engine, variant):
        config = F3RConfig(variant=variant, backend=engine)
        problems = [(poisson2d(24), {"nblocks": 4}), (hpcg_operator(8), {})]
        for matrix, kwargs in problems:
            b = rng.uniform(-1, 1, matrix.nrows)

            # fresh solvers per run: the adaptive Richardson weights carry
            # state across invocations by design, so reusing one solver
            # would compare different algorithms, not different threads
            def solve():
                result = F3RSolver(matrix, preconditioner="auto", config=config,
                                   **kwargs).solve(b)
                return result.iterations, result.x

            iterations, x = solve()
            for got_iterations, got_x in _on_workers(engine, solve):
                assert got_iterations == iterations
                assert _same_bits(got_x, x)

    def test_dispatcher_workers_change_nothing(self, rng):
        matrix = poisson2d(24)
        rhs = [rng.uniform(-1, 1, matrix.nrows) for _ in range(6)]
        config = F3RConfig(variant="fp64")

        def serve(workers):
            # a fresh dispatcher per run and one batch per fingerprint: the
            # adaptive Richardson weights are shared *across* batches of one
            # cached solver by design, so with a single batch only the
            # worker count differs between the two executions
            with BatchDispatcher(config, max_batch=6,
                                 max_workers=workers) as disp:
                futures = [disp.submit(matrix, b) for b in rhs]
                disp.drain()
                results = [f.result() for f in futures]
            return results, disp.stats.summary()

        serial, _ = serve(1)
        results, summary = serve(2)
        for got, want in zip(results, serial):
            assert _same_bits(got.x, want.x)
        assert "pool" not in summary
        assert "autotune" not in summary

    def test_kernel_budget_constants_are_one(self):
        # kernels are serial: the environment record reads constant budgets
        assert repro.configured_threads() == 1
        assert repro.configured_procs() == 1


# ---------------------------------------------------------------------- #
# Per-thread arenas
# ---------------------------------------------------------------------- #
class TestThreadLocalWorkspace:
    def test_each_thread_gets_its_own_arena(self):
        arenas = ThreadLocalWorkspace()
        mine = arenas.workspace
        assert arenas.workspace is mine                 # stable per thread
        seen = _on_workers(None, lambda: arenas.workspace)
        ids = {id(ws) for ws in seen} | {id(mine)}
        assert len(ids) == WORKERS + 1
