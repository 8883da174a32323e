"""Operator abstraction layer: stencil-vs-assembled equivalence and the contract.

The load-bearing guarantees:

* every matrix-free generator in :mod:`repro.matgen.operators` assembles to
  exactly the matrix its assembled twin builds;
* a stencil apply on the ``reference`` backend is *bit-identical* to the
  assembled reference SpMV (the oracle reproduces the CSR product stream),
  and tolerance-close on ``fast``;
* batched applies match ``k`` single applies bitwise on both backends and
  record exactly ``k`` times the single-apply counter totals (counter
  parity), with identical totals across backends;
* fingerprints are stable content keys, and ``astype``-style conversions
  thread them through in O(1) instead of rehashing.

Hypothesis sweeps over random grids/offsets ride in tier 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import use_backend
from repro.matgen import (
    anisotropic_diffusion_3d_operator,
    anisotropic_diffusion_3d,
    convection_diffusion_2d,
    convection_diffusion_2d_operator,
    convection_diffusion_3d,
    convection_diffusion_3d_operator,
    hpcg_matrix,
    hpcg_operator,
    hpgmp_matrix,
    hpgmp_operator,
    laplacian_1d,
    laplacian_1d_operator,
    poisson2d,
    poisson2d_operator,
    poisson3d,
    poisson3d_operator,
)
from repro.operators import (
    AssembledOperator,
    LinearOperator,
    ScaledOperator,
    ShiftedOperator,
    StencilOperator,
    as_operator,
)
from repro.perf import TrafficCounter, counting
from repro.precision import Precision
from repro.sparse import CSRMatrix

pytestmark = pytest.mark.tier1

#: (assembled generator, matrix-free twin, args) — the matgen pairs
GENERATOR_PAIRS = [
    (laplacian_1d, laplacian_1d_operator, (17,)),
    (poisson2d, poisson2d_operator, (6, 4)),
    (poisson3d, poisson3d_operator, (4, 3, 5)),
    (hpcg_matrix, hpcg_operator, (4, 3, 5)),
    (hpgmp_matrix, hpgmp_operator, (3, 4, 5)),
    (convection_diffusion_2d, convection_diffusion_2d_operator, (6, 5)),
    (convection_diffusion_3d, convection_diffusion_3d_operator, (4, 4, 3)),
    (anisotropic_diffusion_3d, anisotropic_diffusion_3d_operator, (4, 3, 4)),
]

TOLS = {
    Precision.FP16: dict(rtol=2e-2, atol=2e-2),
    Precision.FP32: dict(rtol=1e-5, atol=1e-6),
    Precision.FP64: dict(rtol=1e-12, atol=1e-13),
}


def _pair_id(pair):
    return pair[0].__name__


@pytest.fixture(params=GENERATOR_PAIRS, ids=_pair_id)
def pair(request):
    assembled_fn, operator_fn, args = request.param
    return assembled_fn(*args), operator_fn(*args)


class TestAssembleEquivalence:
    def test_assembles_to_the_same_matrix(self, pair):
        matrix, op = pair
        built = op.assemble()
        assert built.shape == matrix.shape
        assert np.array_equal(built.indptr, matrix.indptr)
        assert np.array_equal(built.indices, matrix.indices)
        assert np.array_equal(built.values, matrix.values)

    def test_structural_metadata_matches(self, pair):
        matrix, op = pair
        assert op.nnz == matrix.nnz
        assert op.nnz_per_row == pytest.approx(matrix.nnz_per_row)
        assert np.array_equal(op.diagonal(), matrix.diagonal())
        # the whole point of matrix-free: coefficients only, no nnz-sized arrays
        assert op.memory_bytes() < matrix.memory_bytes() / 10


class TestApplyEquivalence:
    @pytest.mark.parametrize("precision", list(TOLS))
    def test_reference_apply_is_bit_identical(self, pair, precision):
        matrix, op = pair
        rng = np.random.default_rng(3)
        x = rng.standard_normal(op.nrows).astype(precision.dtype)
        a_p = matrix.astype(precision)
        op_p = op.astype(precision)
        with use_backend("reference"):
            assert np.array_equal(op_p.apply(x), a_p.matvec(x))

    @pytest.mark.parametrize("precision", list(TOLS))
    def test_fast_apply_matches_to_tolerance(self, pair, precision):
        matrix, op = pair
        rng = np.random.default_rng(4)
        x = rng.standard_normal(op.nrows).astype(precision.dtype)
        with use_backend("fast"):
            got = op.astype(precision).apply(x)
            want = matrix.astype(precision).matvec(x)
        np.testing.assert_allclose(got.astype(np.float64), want.astype(np.float64),
                                   **TOLS[precision])

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_batch_is_bitwise_k_singles(self, pair, backend):
        _, op = pair
        rng = np.random.default_rng(5)
        x = rng.standard_normal((op.nrows, 3))
        with use_backend(backend):
            batched = op.apply_batch(x)
            singles = np.stack([op.apply(np.ascontiguousarray(x[:, j]))
                                for j in range(3)], axis=1)
        assert np.array_equal(batched, singles)

    def test_out_precision_rounding(self, pair):
        _, op = pair
        x = np.random.default_rng(6).standard_normal(op.nrows)
        y = op.apply(x, out_precision=Precision.FP32)
        assert y.dtype == np.float32

    def test_dimension_validation(self, pair):
        _, op = pair
        with pytest.raises(ValueError):
            op.apply(np.zeros(op.nrows + 1))
        with pytest.raises(ValueError):
            op.apply_batch(np.zeros((op.nrows + 1, 2)))


def _stencil_totals(op, backend, k=None, seed=0):
    rng = np.random.default_rng(seed)
    counter = TrafficCounter()
    with use_backend(backend), counting(counter):
        if k is None:
            op.apply(rng.standard_normal(op.nrows))
        else:
            op.apply_batch(rng.standard_normal((op.nrows, k)))
    return counter


class TestCounterParity:
    """The traffic model must be independent of backend and batching."""

    def test_batched_records_k_times_single(self):
        op = poisson3d_operator(4, 3, 5)
        k = 4
        for backend in ("reference", "fast"):
            single = _stencil_totals(op, backend)
            batched = _stencil_totals(op, backend, k=k)
            assert batched.kernel_calls == {"stencil": k}
            assert single.kernel_calls == {"stencil": 1}
            for p, nbytes in single.bytes_by_precision.items():
                assert batched.bytes_by_precision[p] == k * nbytes
            for p, nflops in single.flops_by_precision.items():
                assert batched.flops_by_precision[p] == k * nflops

    def test_totals_identical_across_backends(self):
        op = hpcg_operator(4)
        ref = _stencil_totals(op, "reference")
        fast = _stencil_totals(op, "fast")
        assert ref.summary() == fast.summary()

    def test_stencil_apply_moves_no_index_bytes(self):
        """The cA collapse: a fused stencil apply has no index stream and its
        value stream is the coefficient table, not an nnz-sized array."""
        op = hpcg_operator(4)
        matrix = hpcg_matrix(4)
        stencil = _stencil_totals(op, "fast")
        assembled = TrafficCounter()
        with use_backend("fast"), counting(assembled):
            matrix.matvec(np.random.default_rng(0).standard_normal(matrix.nrows))
        assert stencil.index_bytes == 0
        assert assembled.index_bytes > 0
        assert stencil.total_value_bytes < assembled.total_value_bytes
        # flops are identical: one multiply-add per structural nonzero
        assert stencil.flops_by_precision == assembled.flops_by_precision


class TestAssembledOperator:
    def test_matches_csr_apply(self, poisson_matrix):
        op = as_operator(poisson_matrix)
        assert isinstance(op, AssembledOperator)
        x = np.random.default_rng(7).standard_normal(poisson_matrix.nrows)
        assert np.array_equal(op.apply(x), poisson_matrix.matvec(x))
        X = np.random.default_rng(8).standard_normal((poisson_matrix.nrows, 3))
        assert np.array_equal(op.apply_batch(X), poisson_matrix.matmat(X))

    @pytest.mark.parametrize("precision", list(Precision))
    def test_every_engine_runs_csr(self, precision):
        """An assembled operator stores and applies CSR on every engine and
        in every precision, its rows uniform (the dense 8 x 8) or skewed."""
        from repro.backends import available_backends, get_backend
        from repro.plans import compile_plan

        skewed = np.eye(12)
        skewed[0, :] = 1.0
        for dense in (np.random.default_rng(9).standard_normal((8, 8)), skewed):
            op = AssembledOperator(CSRMatrix.from_dense(dense)).astype(precision)
            for name in available_backends():
                with use_backend(name):
                    plan = compile_plan(op, precision, backend=get_backend())
                assert plan.kind == "csr" and plan.storage is op.csr


class TestFingerprints:
    def test_astype_threads_cached_fingerprint(self, poisson_matrix):
        fp64 = poisson_matrix.fingerprint()
        cast = poisson_matrix.astype(Precision.FP32)
        # threaded through at cast time (source already hashed): no rehash
        assert cast._fingerprint is not None
        assert cast.fingerprint() != fp64
        # every astype product of the same source agrees (cache keys hit)
        again = poisson_matrix.copy().astype(Precision.FP32)
        assert cast.fingerprint() == again.fingerprint()

    def test_astype_fingerprint_is_lazy(self):
        # casting an un-fingerprinted matrix defers all hashing: the copy
        # records its source and derives the key only on first demand
        matrix = poisson2d(7)
        cast = matrix.astype(Precision.FP16)
        assert cast._fingerprint is None
        assert cast._fingerprint_parent is not None
        derived = cast.fingerprint()
        assert cast._fingerprint_parent is None          # source released
        assert derived == poisson2d(7).astype(Precision.FP16).fingerprint()
        # same-precision lazy cast resolves to the source's own key
        assert matrix.astype(Precision.FP64).fingerprint() == matrix.fingerprint()

    def test_same_precision_cast_keeps_fingerprint(self, poisson_matrix):
        assert (poisson_matrix.astype(Precision.FP64).fingerprint()
                == poisson_matrix.fingerprint())

    def test_assembled_operator_shares_matrix_fingerprint(self, poisson_matrix):
        op = as_operator(poisson_matrix)
        assert op.fingerprint() == poisson_matrix.fingerprint()
        assert (op.astype(Precision.FP16).fingerprint()
                == poisson_matrix.astype(Precision.FP16).fingerprint())

    def test_stencil_fingerprints_stable_and_distinct(self):
        a = poisson3d_operator(4)
        b = poisson3d_operator(4)
        c = poisson3d_operator(5)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.astype("fp16").fingerprint() == b.astype("fp16").fingerprint()
        assert a.astype("fp16").fingerprint() != a.fingerprint()

    def test_astype_is_cached_on_operators(self):
        op = poisson3d_operator(4)
        assert op.astype("fp32") is op.astype("fp32")
        assert op.astype("fp64") is op
        ao = as_operator(poisson2d(5))
        assert ao.astype("fp16") is ao.astype("fp16")
        assert ao.astype("fp64") is ao


class TestComposites:
    def setup_method(self):
        self.op = poisson2d_operator(5, 4)
        self.dense = poisson2d(5, 4).to_dense()
        self.x = np.random.default_rng(11).standard_normal(self.op.nrows)

    def test_shifted_apply_and_diagonal(self):
        sh = ShiftedOperator(self.op, 0.75)
        np.testing.assert_allclose(sh.apply(self.x),
                                   self.dense @ self.x + 0.75 * self.x,
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(sh.diagonal(), self.op.diagonal() + 0.75)
        X = np.random.default_rng(12).standard_normal((self.op.nrows, 3))
        np.testing.assert_allclose(sh.apply_batch(X),
                                   self.dense @ X + 0.75 * X,
                                   rtol=1e-12, atol=1e-13)

    def test_scaled_apply_matches_assembled_scaling(self):
        from repro.sparse import diagonal_scaling

        matrix = poisson2d(5, 4)
        scaled_matrix, diag = diagonal_scaling(matrix)
        scale = 1.0 / np.sqrt(np.abs(diag))
        sc = ScaledOperator.symmetric(self.op, scale)
        np.testing.assert_allclose(sc.apply(self.x), scaled_matrix.matvec(self.x),
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(sc.diagonal(), scaled_matrix.diagonal(),
                                   rtol=1e-12, atol=1e-13)

    def test_one_sided_scaling(self):
        r = np.random.default_rng(13).uniform(0.5, 2.0, self.op.nrows)
        sc = ScaledOperator(self.op, row_scale=r)
        np.testing.assert_allclose(sc.apply(self.x), r * (self.dense @ self.x),
                                   rtol=1e-12, atol=1e-13)

    def test_composite_fingerprints(self):
        sh = ShiftedOperator(self.op, 0.5)
        assert sh.fingerprint() != self.op.fingerprint()
        assert sh.fingerprint() == ShiftedOperator(self.op, 0.5).fingerprint()
        assert sh.fingerprint() != ShiftedOperator(self.op, 0.25).fingerprint()
        s = np.ones(self.op.nrows)
        sc = ScaledOperator.symmetric(self.op, s)
        assert sc.fingerprint() == ScaledOperator.symmetric(self.op, s).fingerprint()
        assert sc.fingerprint() != sh.fingerprint()

    def test_astype_propagates(self):
        sh = ShiftedOperator(self.op, 0.5).astype("fp16")
        assert sh.precision is Precision.FP16
        assert sh.base.precision is Precision.FP16

    def test_astype_round_trip_keeps_rounded_values(self):
        """Upcasting a low-precision stencil must keep the rounded
        coefficients (CSRMatrix.astype semantics), not resurrect the
        unrounded construction values."""
        op = StencilOperator((5, 4), [(0, 0), (0, 1)], [1.1, -0.3])
        op16 = op.astype(Precision.FP16)
        back = op16.astype(Precision.FP64)
        assert np.array_equal(back.values, op16.values.astype(np.float64))
        assembled = op16.assemble().astype(Precision.FP64)
        assert np.array_equal(np.unique(back.values),
                              np.unique(assembled.values))

    def test_assembled_entries_capability(self):
        assert self.op.assembled_entries() is None        # genuinely matrix-free
        matrix = poisson2d(5, 4)
        ao = as_operator(matrix)
        assert ao.assembled_entries() is matrix
        # composites over assembled bases materialize their transform
        sh = ShiftedOperator(ao, 0.5)
        np.testing.assert_allclose(sh.assembled_entries().to_dense(),
                                   self.dense + 0.5 * np.eye(matrix.nrows))
        scale = np.linspace(0.5, 1.5, matrix.nrows)
        sc = ScaledOperator.symmetric(ao, scale)
        np.testing.assert_allclose(sc.assembled_entries().to_dense(),
                                   scale[:, None] * self.dense * scale[None, :])
        # ...but stay None over matrix-free bases
        assert ShiftedOperator(self.op, 0.5).assembled_entries() is None


class TestContract:
    def test_as_operator_passthrough_and_rejection(self):
        op = poisson3d_operator(3)
        assert as_operator(op) is op
        with pytest.raises(TypeError):
            as_operator(np.eye(3))

    def test_structural_duck_types_pass_through(self):
        """An object that satisfies the contract structurally must keep
        working through the solver constructors (duck-typed, as before the
        operator layer existed)."""
        from repro.solvers import RichardsonLevel
        from repro.precond import JacobiPreconditioner
        from repro.precision import LevelPrecision

        class Duck:
            def __init__(self, csr):
                self.csr, self.shape, self.precision = csr, csr.shape, csr.precision

            def apply(self, x, out_precision=None, record=True):
                return self.csr.matvec(x, out_precision=out_precision, record=record)

            def apply_batch(self, x, out_precision=None, record=True):
                return self.csr.matmat(x, out_precision=out_precision, record=record)

            def astype(self, precision):
                return Duck(self.csr.astype(precision))

        matrix = poisson2d(8)
        duck = Duck(matrix)
        assert as_operator(duck) is duck
        fp64 = LevelPrecision(Precision.FP64, Precision.FP64, Precision.FP64)
        level = RichardsonLevel(duck, JacobiPreconditioner(matrix), m=2,
                                adaptive=False, precisions=fp64)
        csr_level = RichardsonLevel(matrix, JacobiPreconditioner(matrix), m=2,
                                    adaptive=False, precisions=fp64)
        v = np.random.default_rng(31).standard_normal(matrix.nrows)
        np.testing.assert_allclose(level.apply(v), csr_level.apply(v),
                                   rtol=1e-12, atol=1e-13)

    def test_csr_satisfies_contract_structurally(self, poisson_matrix):
        x = np.random.default_rng(14).standard_normal(poisson_matrix.nrows)
        assert np.array_equal(poisson_matrix.apply(x), poisson_matrix.matvec(x))
        X = np.random.default_rng(15).standard_normal((poisson_matrix.nrows, 2))
        assert np.array_equal(poisson_matrix.apply_batch(X),
                              poisson_matrix.matmat(X))

    def test_matmul_and_aliases(self):
        op = poisson2d_operator(4)
        x = np.random.default_rng(16).standard_normal(op.nrows)
        assert np.array_equal(op @ x, op.apply(x))
        assert np.array_equal(op.matvec(x), op.apply(x))
        X = np.tile(x[:, None], (1, 2))
        assert np.array_equal(op @ X, op.apply_batch(X))

    def test_cost_model_collapses_cA_for_matrix_free(self):
        from repro.core import CostModel, operator_traffic_constant, traffic_constant
        from repro.precond import JacobiPreconditioner

        matrix = hpcg_matrix(8)
        op = hpcg_operator(8)
        assembled_ca = traffic_constant(matrix)
        free_ca = operator_traffic_constant(op)
        # the coefficient table is O(s) against O(n·s) values+indices, so the
        # per-row constant collapses toward zero as the grid grows
        assert free_ca < assembled_ca / 100
        model = CostModel.for_problem(op, JacobiPreconditioner(op))
        assert model.c_a == pytest.approx(free_ca)
        # assembled problems keep the Eq. 1 constant
        assembled = CostModel.for_problem(matrix, JacobiPreconditioner(matrix))
        assert assembled.c_a == pytest.approx(assembled_ca)
        # composites delegate to their base: a scaled matrix-free system keeps
        # the collapsed constant (plus the scale-vector streams), it does not
        # fall back to the notional assembled formula
        scale = np.ones(op.nrows)
        scaled_ca = operator_traffic_constant(ScaledOperator.symmetric(op, scale))
        assert scaled_ca == pytest.approx(free_ca + 2.0)
        assert scaled_ca < assembled_ca / 10
        shifted_ca = operator_traffic_constant(ShiftedOperator(op, 0.5))
        assert shifted_ca == pytest.approx(free_ca)

    def test_separable_path_uses_rounded_coefficients(self):
        """A box-separable stencil with non-fp16-exact coefficients must apply
        the same (precision-rounded) matrix on every backend."""
        axis = np.array([-0.3, 1.1, -0.3])
        values = np.multiply.outer(np.multiply.outer(axis, axis), axis).ravel()
        offsets = [(dz, dy, dx) for dz in (-1, 0, 1) for dy in (-1, 0, 1)
                   for dx in (-1, 0, 1)]
        op = StencilOperator((6, 5, 4), offsets, values)
        # exact fp64 coefficients factor; per-entry fp16 rounding genuinely
        # breaks the factorization, so the cast operator must *decline* the
        # separable sweep (falling back to the faithful slab path) rather
        # than apply unrounded taps
        assert op.box_separable() is not None
        op16 = op.astype(Precision.FP16)
        assert op16.box_separable() is None
        x = np.random.default_rng(30).standard_normal(op16.nrows).astype(np.float32)
        with use_backend("reference"):
            want = op16.apply(x)
        with use_backend("fast"):
            got = op16.apply(x)
        # fp32 compute on identical fp16-rounded coefficients: only summation
        # order may differ between the backends
        np.testing.assert_allclose(got.astype(np.float64), want.astype(np.float64),
                                   rtol=1e-5, atol=1e-6)
        # diagonal reports the stored (rounded) coefficient too
        assert op16.diagonal()[0] == float(np.float16(values[13]))

    def test_stencil_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            StencilOperator((0, 3), [(0, 0)], [1.0])
        with pytest.raises(ValueError):
            StencilOperator((3, 3), [(0, 0), (0, 0)], [1.0, 2.0])
        with pytest.raises(ValueError):
            StencilOperator((3, 3), [(0, 0)], [1.0, 2.0])


@pytest.mark.tier2
class TestHypothesisSweeps:
    """Random grids and stencils: the generic operator against its assembly."""

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_random_stencil_matches_assembly(self, data):
        ndim = data.draw(st.integers(1, 3), label="ndim")
        dims = tuple(data.draw(st.integers(1, 6), label=f"dim{d}")
                     for d in range(ndim))
        npts = data.draw(st.integers(1, 6), label="npoints")
        offsets = data.draw(
            st.lists(st.tuples(*[st.integers(-2, 2)] * ndim),
                     min_size=npts, max_size=npts, unique=True),
            label="offsets")
        values = data.draw(
            st.lists(st.floats(-4.0, 4.0, allow_nan=False, width=64),
                     min_size=npts, max_size=npts),
            label="values")
        op = StencilOperator(dims, offsets, values)
        matrix = op.assemble()
        assert matrix.nnz == op.nnz
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
        x = rng.standard_normal(op.nrows)
        with use_backend("reference"):
            assert np.array_equal(op.apply(x), matrix.matvec(x))
        with use_backend("fast"):
            np.testing.assert_allclose(op.apply(x), matrix.matvec(x),
                                       rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(nx=st.integers(2, 6), ny=st.integers(1, 5), nz=st.integers(1, 4),
           k=st.integers(1, 4), seed=st.integers(0, 2**31),
           precision=st.sampled_from(list(TOLS)))
    def test_hpgmp_batched_sweep(self, nx, ny, nz, k, seed, precision):
        matrix = hpgmp_matrix(nx, ny, nz).astype(precision)
        op = hpgmp_operator(nx, ny, nz).astype(precision)
        x = np.random.default_rng(seed).standard_normal((op.nrows, k))
        x = x.astype(precision.dtype)
        with use_backend("reference"):
            want = np.stack([matrix.matvec(np.ascontiguousarray(x[:, j]))
                             for j in range(k)], axis=1)
            assert np.array_equal(op.apply_batch(x), want)
        with use_backend("fast"):
            got = op.apply_batch(x)
        np.testing.assert_allclose(got.astype(np.float64), want.astype(np.float64),
                                   **TOLS[precision])
