"""Backend equivalence: the ``fast`` engine must match the ``reference`` oracle.

Property-based kernel tests sweep fp16/fp32/fp64 storage and adversarial
sparsity (empty rows, empty matrices, single rows), and a tier-2 solver sweep
runs every solver variant end-to-end on both backends.  Tolerances scale with
the compute precision: the fast backend may reorder floating-point sums
(BLAS-2 vs per-column loops) or fuse multiply-adds (scipy's compiled CSR
matvec), so CSR SpMV and FGMRES agree to last-ulp-level tolerances, while
kernels with identical operation order (triangular solve, ILU(0)) must agree
exactly.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.backends import (
    DEFAULT_BACKEND,
    Workspace,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.core import F3RConfig, solve_f3r
from repro.perf import counting
from repro.precision import Precision
from repro.solvers import RestartedFGMRES, fgmres_cycle_batch
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    TriangularFactor,
    fuse_block_diagonal,
)

pytestmark = pytest.mark.tier1

# hypothesis sweeps ride in tier 2; under CI=1 the example budget comes from
# the deterministic "ci" profile registered in conftest.py
COMMON = (dict(deadline=None) if os.environ.get("CI", "") == "1"
          else dict(max_examples=25, deadline=None))

finite_floats = st.floats(min_value=-1e2, max_value=1e2, allow_nan=False,
                          allow_infinity=False, width=64)

#: summation-order-sensitive kernels agree to these per-precision tolerances
TOLS = {
    Precision.FP16: dict(rtol=2e-2, atol=2e-2),
    Precision.FP32: dict(rtol=1e-5, atol=1e-6),
    Precision.FP64: dict(rtol=1e-12, atol=1e-13),
}

DTYPES = [Precision.FP16, Precision.FP32, Precision.FP64]

#: every kernel engine; ``native`` where it builds on this host
ENGINES = ["reference", "fast"] + (
    ["native"] if "native" in available_backends() else [])


@st.composite
def csr_matrices(draw, max_n=14, with_diagonal=False):
    """Random small square CSR matrices, possibly with empty rows/columns."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    nnz = draw(st.integers(min_value=0, max_value=3 * n))
    rows = draw(hnp.arrays(np.int32, nnz, elements=st.integers(0, n - 1)))
    cols = draw(hnp.arrays(np.int32, nnz, elements=st.integers(0, n - 1)))
    vals = draw(hnp.arrays(np.float64, nnz, elements=finite_floats))
    if with_diagonal:
        diag_rows = np.arange(n, dtype=np.int32)
        diag_vals = draw(hnp.arrays(np.float64, n,
                                    elements=st.floats(min_value=1.0, max_value=10.0)))
        rows = np.concatenate([rows, diag_rows])
        cols = np.concatenate([cols, diag_rows])
        vals = np.concatenate([vals, diag_vals])
    return COOMatrix(rows, cols, vals, (n, n)).to_csr()


def _both_backends(fn):
    """Run ``fn(backend)`` under reference and fast; return the two results."""
    with use_backend("reference"):
        ref = fn(get_backend())
    with use_backend("fast"):
        fast = fn(get_backend())
    return ref, fast


# --------------------------------------------------------------------------- #
class TestSpmvEquivalence:
    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(), st.sampled_from(DTYPES), st.sampled_from(DTYPES),
           st.integers(0, 2**31 - 1))
    def test_csr_matches_reference(self, csr, mat_prec, vec_prec, seed):
        a = csr.astype(mat_prec)
        x = np.random.default_rng(seed).uniform(-1, 1, a.ncols).astype(vec_prec.dtype)
        ref, fast = _both_backends(lambda b: a.matvec(x, record=False))
        # same accumulation precision and order on both engines; the fast
        # engine's fused multiply-adds may differ in the last ulp
        compute = mat_prec if mat_prec.bytes >= vec_prec.bytes else vec_prec
        assert np.allclose(ref.astype(np.float64), fast.astype(np.float64),
                           **TOLS[compute])
        assert ref.dtype == fast.dtype

    def test_empty_matrix(self):
        csr = CSRMatrix(np.zeros(0), np.zeros(0, np.int32), np.zeros(2, np.int32),
                        (1, 1))
        x = np.zeros(1)
        ref, fast = _both_backends(lambda b: csr.matvec(x, record=False))
        assert np.array_equal(ref, fast)

    def test_interleaved_empty_rows(self):
        # rows 0, 2, 4 empty; exercises the reduceat empty-segment handling
        dense = np.zeros((5, 5))
        dense[1, [0, 3]] = [2.0, -1.0]
        dense[3, [1, 2, 4]] = [1.0, 4.0, 0.5]
        csr = CSRMatrix.from_dense(dense)
        x = np.arange(1.0, 6.0)
        ref, fast = _both_backends(lambda b: csr.matvec(x, record=False))
        assert np.allclose(ref, fast, **TOLS[Precision.FP64])
        assert np.allclose(fast, dense @ x)


# --------------------------------------------------------------------------- #
class TestTrsvEquivalence:
    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(with_diagonal=True), st.sampled_from(DTYPES),
           st.booleans(), st.booleans(), st.integers(0, 2**31 - 1))
    def test_matches_reference(self, csr, prec, lower, unit_diagonal, seed):
        from repro.sparse import split_triangular

        lo, diag, up = split_triangular(csr)
        tri = lo if lower else up
        if not unit_diagonal:
            from repro.sparse.coo import COOMatrix as COO

            n = csr.nrows
            coo = tri.to_coo()
            tri = COO(np.concatenate([coo.rows, np.arange(n, dtype=np.int32)]),
                      np.concatenate([coo.cols, np.arange(n, dtype=np.int32)]),
                      np.concatenate([coo.values, diag]), (n, n)).to_csr()
        factor_args = dict(lower=lower, unit_diagonal=unit_diagonal)
        b = np.random.default_rng(seed).uniform(-1, 1, csr.nrows)

        def run(backend):
            factor = TriangularFactor(tri.astype(prec), **factor_args)
            return factor.solve(b, record=False)

        ref, fast = _both_backends(run)
        assert np.array_equal(ref, fast, equal_nan=True)

    def test_plan_cached_and_shared_across_astype(self):
        csr = CSRMatrix.from_dense(np.tril(np.arange(1.0, 26.0).reshape(5, 5)) +
                                   4 * np.eye(5))
        factor = TriangularFactor(csr, lower=True)
        b = np.arange(1.0, 6.0)
        with use_backend("fast"):
            factor.solve(b, record=False)
            plan = factor._fast_plan
            assert plan is not None
            factor.solve(b, record=False)
            assert factor._fast_plan is plan
            assert factor.astype(Precision.FP32)._fast_plan is plan


# --------------------------------------------------------------------------- #
class TestIlu0Equivalence:
    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(with_diagonal=True), st.floats(0.9, 1.1))
    def test_factors_match_reference(self, csr, alpha):
        from repro.precond import ilu0_factor

        def run(backend):
            return ilu0_factor(csr, alpha=alpha)

        (l_ref, u_ref), (l_fast, u_fast) = _both_backends(run)
        assert np.array_equal(l_ref.indptr, l_fast.indptr)
        assert np.array_equal(l_ref.indices, l_fast.indices)
        assert np.array_equal(u_ref.indptr, u_fast.indptr)
        assert np.array_equal(u_ref.indices, u_fast.indices)
        # identical elimination order => identical floating-point results
        assert np.array_equal(l_ref.values, l_fast.values)
        assert np.array_equal(u_ref.values, u_fast.values)


# --------------------------------------------------------------------------- #
class TestFgmresEquivalence:
    @pytest.mark.parametrize("prec", DTYPES)
    def test_cycle_matches_reference(self, dd_matrix, prec):
        rng = np.random.default_rng(5)
        b = rng.uniform(-1, 1, dd_matrix.nrows).astype(prec.dtype)
        a = dd_matrix.astype(prec)

        def run(backend):
            z, iters, est = fgmres_cycle_batch(a, b[:, None].copy(), None, m=8,
                                               vec_prec=prec)
            return z[:, 0].astype(np.float64), int(iters[0])

        (z_ref, it_ref), (z_fast, it_fast) = _both_backends(run)
        assert it_ref == it_fast
        scale = max(1.0, float(np.max(np.abs(z_ref))))
        tol = TOLS[prec]
        assert np.allclose(z_ref, z_fast, rtol=50 * tol["rtol"],
                           atol=50 * tol["atol"] * scale)

    def test_workspace_buffers_are_reused(self, dd_matrix):
        b = np.random.default_rng(0).uniform(-1, 1, dd_matrix.nrows)
        ws = Workspace()
        with use_backend("fast"):
            fgmres_cycle_batch(dd_matrix, b[:, None], None, m=6,
                               vec_prec=Precision.FP64, workspace=ws)
            basis = ws.get("krylov_basis_batch", (1, 7, dd_matrix.nrows),
                           np.float64)
            fgmres_cycle_batch(dd_matrix, b[:, None], None, m=6,
                               vec_prec=Precision.FP64, workspace=ws)
            again = ws.get("krylov_basis_batch", (1, 7, dd_matrix.nrows),
                           np.float64)
            assert again.base is basis.base


# --------------------------------------------------------------------------- #
@pytest.mark.tier2
class TestSolverSweepEquivalence:
    """Tier-2: every solver variant produces equivalent solves on both backends."""

    @pytest.mark.parametrize("variant", ["fp16", "fp32", "fp64"])
    @pytest.mark.parametrize("fixture", ["spd", "nonsym"])
    def test_f3r_variants(self, variant, fixture, spd_matrix, nonsym_matrix,
                          spd_rhs, nonsym_rhs):
        matrix = spd_matrix if fixture == "spd" else nonsym_matrix
        rhs = spd_rhs if fixture == "spd" else nonsym_rhs
        config = F3RConfig(variant=variant, m1=60, m2=4, m3=2, m4=2, tol=1e-7)

        def run(backend):
            return solve_f3r(matrix, rhs, preconditioner="auto", nblocks=4,
                             config=config)

        ref, fast = _both_backends(run)
        assert ref.converged and fast.converged
        assert ref.relative_residual < config.tol
        assert fast.relative_residual < config.tol
        scale = max(1.0, float(np.linalg.norm(ref.x)))
        assert np.linalg.norm(ref.x - fast.x) / scale < 1e-4

    def test_restarted_fgmres(self, dd_matrix, jacobi_precond):
        b = np.random.default_rng(3).uniform(-1, 1, dd_matrix.nrows)

        def run(backend):
            solver = RestartedFGMRES(dd_matrix, jacobi_precond, restart=20, tol=1e-9)
            return solver.solve(b)

        ref, fast = _both_backends(run)
        assert ref.converged and fast.converged
        assert np.allclose(ref.x, fast.x, rtol=1e-5, atol=1e-8)

    def test_config_backend_knob(self, dd_matrix):
        b = np.random.default_rng(4).uniform(-1, 1, dd_matrix.nrows)
        for backend in ("reference", "fast"):
            config = F3RConfig(variant="fp64", m1=40, m2=2, m3=2, m4=1,
                               tol=1e-7, backend=backend)
            result = solve_f3r(dd_matrix, b, preconditioner="jacobi", config=config)
            assert result.converged

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            F3RConfig(backend="cuda-imaginary")


# --------------------------------------------------------------------------- #
class TestCounterParity:
    """Both backends must record identical traffic totals."""

    def _traffic(self, fn, backend):
        with use_backend(backend):
            with counting() as counter:
                fn()
        return counter.summary()

    def test_spmv_traffic_identical(self, spd_matrix, spd_rhs):
        ref = self._traffic(lambda: spd_matrix.matvec(spd_rhs), "reference")
        fast = self._traffic(lambda: spd_matrix.matvec(spd_rhs), "fast")
        assert ref == fast

    def test_trsv_traffic_identical(self, spd_matrix):
        from repro.precond import ilu0_factor

        lower, _ = ilu0_factor(spd_matrix)
        b = np.random.default_rng(0).random(spd_matrix.nrows)

        def run():
            TriangularFactor(lower, lower=True, unit_diagonal=True).solve(b)

        assert self._traffic(run, "reference") == self._traffic(run, "fast")

    def test_fgmres_cycle_traffic_identical(self, dd_matrix):
        b = np.random.default_rng(1).uniform(-1, 1, dd_matrix.nrows)

        def run():
            fgmres_cycle_batch(dd_matrix, b[:, None], None, m=5,
                               vec_prec=Precision.FP64)

        ref = self._traffic(run, "reference")
        fast = self._traffic(run, "fast")
        assert ref["kernel_calls"] == fast["kernel_calls"]
        assert ref["bytes"] == fast["bytes"]
        assert ref["flops"] == fast["flops"]


# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_available_and_default(self):
        names = available_backends()
        assert "reference" in names and "fast" in names
        # the compiled engine is the default wherever it builds; the numpy
        # engine otherwise (and always under REPRO_BACKEND=fast)
        env = os.environ.get("REPRO_BACKEND", "").strip().lower()
        want = env if env in ("fast", "reference") else (
            "native" if "native" in names else "fast")
        assert DEFAULT_BACKEND == want

    def test_use_backend_restores(self):
        before = get_backend().name
        with use_backend("reference"):
            assert get_backend().name == "reference"
            with use_backend("fast"):
                assert get_backend().name == "fast"
            assert get_backend().name == "reference"
        assert get_backend().name == before

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("imaginary")

    def test_mistyped_env_default_fails_at_import(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_BACKEND="fsat",
                   PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", "import repro"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode != 0
        assert "REPRO_BACKEND='fsat'" in proc.stderr

    def test_register_custom_backend(self):
        from repro.backends.fast import FastBackend

        class TracingBackend(FastBackend):
            name = "tracing-test"

        register_backend("tracing-test", TracingBackend)
        try:
            with use_backend("tracing-test"):
                assert get_backend().name == "tracing-test"
        finally:
            from repro.backends import _FACTORIES, _INSTANCES

            _FACTORIES.pop("tracing-test", None)
            _INSTANCES.pop("tracing-test", None)

    def test_set_backend_returns_instance(self):
        previous = get_backend().name
        try:
            assert set_backend("reference").name == "reference"
        finally:
            set_backend(previous)

    def test_set_backend_keys_by_registry_name(self):
        # a third-party subclass that forgets to override `name` must still
        # activate under its registered key, not its inherited class name
        from repro.backends import _FACTORIES, _INSTANCES
        from repro.backends.fast import FastBackend

        class ForgotName(FastBackend):
            pass                      # inherits name == "fast"

        register_backend("forgot-name", ForgotName)
        try:
            with use_backend("forgot-name"):
                assert isinstance(get_backend(), ForgotName)
        finally:
            _FACTORIES.pop("forgot-name", None)
            _INSTANCES.pop("forgot-name", None)


class TestCountersDisabled:
    def test_disabled_recording_is_noop(self, spd_matrix, spd_rhs):
        from repro.perf import counters_disabled, counting

        with counting() as counter:
            with counters_disabled():
                spd_matrix.matvec(spd_rhs)
        assert counter.total_bytes == 0
        assert counter.kernel_calls == {}

    def test_disabled_solve_still_converges(self, dd_matrix):
        from repro.perf import counters_disabled

        b = np.random.default_rng(2).uniform(-1, 1, dd_matrix.nrows)
        with counters_disabled():
            result = solve_f3r(dd_matrix, b, preconditioner="jacobi",
                               config=F3RConfig(variant="fp64", m1=40, m2=2,
                                                m3=2, m4=1, tol=1e-7))
        assert result.converged

    def test_explicit_counting_scope_reenables(self, spd_matrix, spd_rhs):
        # REPRO_COUNTERS=0 must not silently zero out an explicit measurement
        from repro.perf import counters_disabled, counters_enabled, counting

        with counters_disabled():
            with counting() as counter:
                spd_matrix.matvec(spd_rhs)
            assert not counters_enabled()   # restored after the scope
        assert counter.total_bytes > 0
        assert counter.calls_for("spmv") == 1

    def test_disable_is_thread_local(self, spd_matrix, spd_rhs):
        import threading

        from repro.perf import counters_disabled, counting

        recorded = {}
        gate_disabled = threading.Event()
        gate_measured = threading.Event()

        def disabler():
            with counters_disabled():
                gate_disabled.set()
                gate_measured.wait(timeout=10)

        def measurer():
            gate_disabled.wait(timeout=10)
            with counting() as counter:
                spd_matrix.matvec(spd_rhs)
            recorded["bytes"] = counter.total_bytes
            gate_measured.set()

        threads = [threading.Thread(target=disabler), threading.Thread(target=measurer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # thread B's measurement must be unaffected by thread A's disable
        assert recorded["bytes"] > 0


class TestConcurrentSharedMatrix:
    def test_parallel_matvecs_on_shared_matrix_are_correct(self):
        # per-thread scratch arenas: two threads hammering the same matrix
        # (fp16 compute exercises the shared product-buffer path) must not
        # interleave results
        import threading

        rng = np.random.default_rng(9)
        dense = rng.uniform(-1, 1, (64, 64)) * (rng.random((64, 64)) < 0.2)
        csr = CSRMatrix.from_dense(dense).astype(Precision.FP16)
        x16 = rng.uniform(-1, 1, 64).astype(np.float16)
        with use_backend("fast"):
            expected_csr = csr.matvec(x16, record=False)
        errors = []

        def worker():
            try:
                with use_backend("fast"):
                    for _ in range(200):
                        if not np.array_equal(csr.matvec(x16, record=False),
                                              expected_csr):
                            raise AssertionError("csr race")
            except Exception as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors


class TestConcurrentSharedSolver:
    def test_parallel_solves_on_shared_solver_are_correct(self, dd_matrix,
                                                          jacobi_precond):
        import threading

        solver = RestartedFGMRES(dd_matrix, jacobi_precond, restart=20, tol=1e-9)
        rngs = [np.random.default_rng(s) for s in range(4)]
        rhss = [r.uniform(-1, 1, dd_matrix.nrows) for r in rngs]
        expected = [solver.solve(b).x for b in rhss]
        errors = []

        def worker(i):
            try:
                for _ in range(5):
                    result = solver.solve(rhss[i])
                    if not np.allclose(result.x, expected[i], rtol=1e-8, atol=1e-10):
                        raise AssertionError(f"solver race on rhs {i}")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors


class TestScratchSerializability:
    def test_used_objects_pickle_and_deepcopy(self):
        # lazily attached scratch state must not break pickling/deepcopying
        import copy
        import pickle

        dense = np.diag(np.arange(1.0, 9.0)) + np.tri(8, k=-1)
        csr = CSRMatrix.from_dense(dense)
        factor = TriangularFactor(csr, lower=True)
        x = np.arange(1.0, 9.0)
        with use_backend("fast"):
            csr.matvec(x, record=False)
            factor.solve(x, record=False)
            for obj in (csr, factor):
                clone = pickle.loads(pickle.dumps(obj))
                deep = copy.deepcopy(obj)
                for other in (clone, deep):
                    if hasattr(other, "matvec"):
                        assert np.array_equal(other.matvec(x, record=False),
                                              obj.matvec(x, record=False))
                    else:
                        assert np.array_equal(other.solve(x, record=False),
                                              obj.solve(x, record=False))


class TestConfigBackendScopesConstruction:
    def test_preconditioner_built_on_configured_backend(self, dd_matrix):
        from repro.backends import _FACTORIES, _INSTANCES
        from repro.backends.reference import ReferenceBackend
        from repro.core import F3RSolver

        calls = []

        class TracingReference(ReferenceBackend):
            name = "tracing-ref"

            def ilu0_factor(self, matrix, alpha=1.0, breakdown_shift=1e-12):
                calls.append("ilu0")
                return super().ilu0_factor(matrix, alpha, breakdown_shift)

        register_backend("tracing-ref", TracingReference)
        try:
            with use_backend("fast"):      # process default differs from config
                F3RSolver(dd_matrix, preconditioner="auto",
                          config=F3RConfig(variant="fp64", backend="tracing-ref"))
            assert calls, "construction did not run on the configured backend"
        finally:
            _FACTORIES.pop("tracing-ref", None)
            _INSTANCES.pop("tracing-ref", None)


# --------------------------------------------------------------------------- #
# The one-kernel contract: each kernel takes a vector or an (n, k) block, and a
# block call equals k vector calls — column by column, bit for bit, with the
# same counter totals — on every engine.
# --------------------------------------------------------------------------- #
CONTRACT_KERNELS = ("spmv_csr", "apply_stencil", "trsv",
                    "spmv_axpy", "residual_update", "weighted_update",
                    "diag_scale", "cast")


def _contract_calls(kernel, ops, mat_prec, vec_prec):
    """``(run, operands)`` for one kernel: ``run(be, *operands)`` calls it on
    ``(n,)`` vectors or ``(n, k)`` blocks (blocks in ``operands``).

    ``ops`` holds the contract fixture's operators; matrix data is stored at
    ``mat_prec`` and vectors at ``vec_prec``.
    """
    a = ops["csr"].astype(mat_prec)
    n = a.nrows
    vec = vec_prec.dtype
    if kernel == "spmv_csr":
        def run(be, x):
            return be.spmv_csr(a.values, a.indices, a.indptr, x,
                               scratch=a.scratch())
        return run, ("x",)
    if kernel == "apply_stencil":
        # the separable sweep and the general per-offset slab path
        stencils = [op.astype(mat_prec) for op in ops["stencils"]]
        return (lambda be, x: np.concatenate(
            [be.apply_stencil(op, x[:op.nrows]) for op in stencils])), ("x",)
    if kernel == "trsv":
        # a unit-diagonal L and a non-unit U, wide enough for the staged
        # fp16 level sweep
        lower, upper = (f.astype(mat_prec) for f in ops["factors"])
        return (lambda be, b: be.trsv(upper, be.trsv(lower, b))), ("x",)
    if kernel == "spmv_axpy":
        def run(be, x, y):
            return be.spmv_axpy(a.values, a.indices, a.indptr, x, y,
                                out_precision=vec_prec, scratch=a.scratch())
        return run, ("x", "y")
    if kernel == "residual_update":
        return (lambda be, v, az: be.residual_update(
            v, az, out_precision=vec_prec, scratch=Workspace())), ("y", "m")
    if kernel == "diag_scale":
        # a Jacobi-style scale at the matrix precision
        scale = (1.0 / np.linspace(1.0, 9.0, n)).astype(mat_prec.dtype)
        return (lambda be, x: be.diag_scale(scale, x)), ("x",)
    if kernel == "cast":
        # vectors to the matrix precision; blocks of 3 and 8 columns pass
        # native's size gate, single columns do not
        return (lambda be, x: be.cast(x, mat_prec)), ("x",)
    assert kernel == "weighted_update"

    def run(be, z, mr, omega):
        return be.weighted_update(z.copy(), mr, omega, vec_prec,
                                  scratch=Workspace())
    return run, ("y", "m", "omega")


def _contract_operands(names, n, k, mat_prec, vec_prec, seed):
    """Blocks for the named operands: vectors at ``vec_prec``, ``m`` at
    ``mat_prec`` and per-column weights ``omega``."""
    rng = np.random.default_rng(seed)
    dtypes = {"x": vec_prec.dtype, "y": vec_prec.dtype, "m": mat_prec.dtype}
    return [rng.uniform(0.5, 1.5, k) if name == "omega"
            else rng.uniform(-1, 1, (n, k)).astype(dtypes[name])
            for name in names]


def _column(operand, j):
    return operand[j] if operand.ndim == 1 else np.ascontiguousarray(operand[:, j])


def assert_column_contract(run, operands, backend):
    """``run`` on the blocks equals ``run`` on each column, bit for bit,
    and records the same counter totals.  A zero-column block keeps the
    row count and dtype of a one-column call and records nothing."""
    with use_backend(backend):
        be = get_backend()
        with counting() as block_traffic:
            block = run(be, *operands)
        k = operands[0].shape[1]
        with counting() as column_traffic:
            cols = [run(be, *(_column(op, j) for op in operands))
                    for j in range(k)]
        probe = cols[0] if cols else run(be, *(
            _column(np.ones(op.shape[:-1] + (1,), op.dtype), 0)
            for op in operands))
    assert block.shape == (probe.shape[0], k)
    assert block.dtype == probe.dtype
    for j, col in enumerate(cols):
        assert block.dtype == col.dtype
        assert np.array_equal(_column(block, j).view(np.uint8), col.view(np.uint8)), \
            f"column {j} differs"
    assert block_traffic.summary() == column_traffic.summary()


@pytest.fixture(scope="module")
def contract_ops():
    from repro.matgen import convection_diffusion_2d_operator, hpcg_matrix, hpcg_operator
    from repro.precond import ilu0_factor

    lower, upper = ilu0_factor(hpcg_matrix(10))
    # two fused blocks average > STAGED_LEVEL_GATHERS gathers per level, so
    # fp16 solves take the staged level sweep
    factors = tuple(fuse_block_diagonal([f, f]) for f in (
        TriangularFactor(lower, lower=True, unit_diagonal=True),
        TriangularFactor(upper, lower=False)))
    return {
        "csr": hpcg_matrix(10, 10, 20),
        "factors": factors,
        # separable box stencil and an upwind (non-separable) one, each no
        # larger than the CSR operand
        "stencils": (hpcg_operator(10, 10, 20),
                     convection_diffusion_2d_operator(24)),
    }


class TestPerColumnContract:
    """One sweep over every shape-generic kernel, engine, width and precision
    pair: an ``(n, k)`` call equals ``k`` ``(n,)`` calls."""

    @pytest.mark.parametrize("vec_prec", DTYPES, ids=lambda p: p.label)
    @pytest.mark.parametrize("mat_prec", DTYPES, ids=lambda p: p.label)
    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("kernel", CONTRACT_KERNELS)
    def test_block_equals_columns(self, contract_ops, kernel, backend, k,
                                  mat_prec, vec_prec):
        run, names = _contract_calls(kernel, contract_ops, mat_prec, vec_prec)
        operands = _contract_operands(names, contract_ops["csr"].nrows, k,
                                      mat_prec, vec_prec, seed=k)
        assert_column_contract(run, operands, backend)

    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(with_diagonal=True), st.sampled_from(DTYPES),
           st.sampled_from(DTYPES), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_adversarial_sparsity(self, csr, mat_prec, vec_prec, k, seed):
        """Random patterns (empty rows and columns, single rows) through the
        CSR and triangular kernels."""
        from repro.sparse import split_triangular

        lo, diag, up = split_triangular(csr)
        n = csr.nrows
        coo = up.to_coo()
        upper = COOMatrix(np.concatenate([coo.rows, np.arange(n, dtype=np.int32)]),
                          np.concatenate([coo.cols, np.arange(n, dtype=np.int32)]),
                          np.concatenate([coo.values, diag]), (n, n)).to_csr()
        ops = {"csr": csr,
               "factors": (TriangularFactor(lo, lower=True, unit_diagonal=True),
                           TriangularFactor(upper, lower=False))}
        for kernel in ("spmv_csr", "trsv", "spmv_axpy"):
            run, names = _contract_calls(kernel, ops, mat_prec, vec_prec)
            operands = _contract_operands(names, n, k, mat_prec, vec_prec, seed)
            for backend in ENGINES:
                assert_column_contract(run, operands, backend)

    def test_matmul_operator_dispatches_on_ndim(self):
        csr = CSRMatrix.from_dense(np.eye(4) * 2.0)
        x = np.arange(4.0)
        assert (csr @ x).shape == (4,)
        assert (csr @ np.stack([x, x], axis=1)).shape == (4, 2)

    def test_shape_validation(self):
        csr = CSRMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            csr.matmat(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            csr.matmat(np.zeros(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            csr.matvec(np.zeros(5))

    def test_spmm_parity_across_backends(self, spd_matrix):
        x = np.random.default_rng(7).uniform(-1, 1, (spd_matrix.ncols, 3))
        traffic = {}
        for backend in ("reference", "fast"):
            with use_backend(backend), counting() as counter:
                spd_matrix.matmat(x)
            traffic[backend] = counter.summary()
        assert traffic["reference"] == traffic["fast"]

    def test_precond_apply_batch_counts_k_applications(self, spd_matrix):
        from repro.precond import BlockJacobiILU0

        precond = BlockJacobiILU0(spd_matrix, nblocks=4)
        r = np.random.default_rng(8).uniform(-1, 1, (spd_matrix.nrows, 6))
        before = precond.num_applications
        precond.apply_batch(r)
        assert precond.num_applications - before == 6
