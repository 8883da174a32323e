"""The compiled ``native`` engine: bit for bit against the ``reference`` oracle.

``native`` ports two kernels to C — the level-scheduled triangular solve
(fp64, fp32 and fp16 compute) and the fp16 CSR products ``spmv_csr`` /
``spmv_axpy`` — and inherits everything else from ``fast``.  Here every
ported kernel must equal ``reference`` bit for bit (NaN by position, not
payload) on lower and upper ILU(0), IC(0), fused block-ILU(0) and long-row factors and
on a CSR matrix with long, short and empty rows, for vectors and for blocks
of 0, 1, 2 and 8 columns, on inputs with fp16-subnormal products, overflow
to ±inf, signed zeros and NaN.  Counter totals must equal ``fast``'s, and
four threads solving on one factor (ctypes releases the interpreter lock, so
they truly overlap) must each match a serial solve.

The whole module skips when the host has no C compiler;
``test_native_fallback.py`` covers that path.  With a compiler, the engine
must have registered (its load-time self-check passed) and be the default.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import available_backends, get_backend, use_backend
from repro.matgen import get_matrix, hpcg_matrix
from repro.perf import counting
from repro.precision import Precision, precision_of_dtype
from repro.precond import BlockJacobiILU0, IC0Preconditioner, ILU0Preconditioner
from repro.sparse import CSRMatrix, TriangularFactor, diagonal_scaling

#: the engine is required wherever a C compiler is present: a kernel that
#: fails its load-time self-check must fail here, not skip
NATIVE_ONLY = pytest.mark.skipif(
    shutil.which((os.environ.get("CC", "").strip() or "cc").split()[0]) is None,
    reason="no C compiler on this host: the native engine cannot be built")
pytestmark = [pytest.mark.tier1, NATIVE_ONLY]

HALF = np.dtype(np.float16)
DTYPES = (np.dtype(np.float64), np.dtype(np.float32), HALF)
WIDTHS = (None, 0, 1, 2, 8)          # None: a vector; else an (n, k) block
INPUTS = ("ordinary", "subnormal", "overflow", "signed_zero", "nan")


def assert_bit_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    assert np.array_equal(nan_a, nan_b)
    kind = {2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
    assert np.array_equal(a.view(kind)[~nan_a], b.view(kind)[~nan_b])


def _operand(kind: str, n: int, width, dtype, seed: int) -> np.ndarray:
    """A vector (``width=None``) or an ``(n, width)`` block of one input
    family, each column a different draw.  The magnitudes are chosen for
    fp16: products land in its subnormal range, past its maximum, on ±0."""
    rng = np.random.default_rng(seed)
    shape = (n,) if width is None else (n, width)
    if kind == "ordinary":
        x = rng.uniform(-1, 1, shape)
    elif kind == "subnormal":
        x = rng.uniform(-1, 1, shape) * 6e-5
    elif kind == "overflow":
        x = rng.uniform(-1, 1, shape) * 6e4
    elif kind == "signed_zero":
        x = np.where(rng.random(shape) < 0.6, 0.0, rng.uniform(-1, 1, shape) * 1e-7)
        x = np.where(rng.random(shape) < 0.5, -x, x)
        x[rng.random(shape) < 0.3] = -0.0
    else:
        x = rng.uniform(-1, 1, shape)
        x[n // 3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return x.astype(dtype)


def _on(engine: str, fn):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with use_backend(engine):
            return fn(get_backend())


# ---------------------------------------------------------------------- #
# Operands
# ---------------------------------------------------------------------- #
def _long_rows(n: int = 300, wide: int = 260) -> np.ndarray:
    """Lower triangle whose last rows gather 130-260 earlier entries (the
    8-accumulator and halving branches of the pairwise sum)."""
    rng = np.random.default_rng(8)
    dense = np.diag(rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n))
    for r in range(wide, n):
        width = int(rng.integers(130, wide + 1))
        dense[r, :width] = rng.uniform(-1, 1, width) * np.exp(rng.uniform(-4, 1, width))
    return dense


@pytest.fixture(scope="module")
def factors() -> dict:
    """(lower, upper) pairs: ILU(0) of a non-symmetric matrix, IC(0) of an
    SPD one (unit L and unit Lᵀ), block-ILU(0) fused over 3 blocks, and a
    factor with rows of 130-260 entries."""
    nonsym, _ = diagonal_scaling(get_matrix("atmosmodd", "tiny"))
    spd, _ = diagonal_scaling(hpcg_matrix(6))
    ilu = ILU0Preconditioner(nonsym)
    ic = IC0Preconditioner(spd)
    dense = _long_rows()
    return {"ilu0": (ilu._lower, ilu._upper),
            "ic0": (ic._lower, ic._upper_t),
            "block_ilu0": BlockJacobiILU0(nonsym, nblocks=3)._fused_parts(),
            "long_rows": (TriangularFactor(CSRMatrix.from_dense(dense), lower=True),
                          TriangularFactor(CSRMatrix.from_dense(dense[::-1, ::-1].copy()),
                                           lower=False))}


@pytest.fixture(scope="module")
def matrix16() -> CSRMatrix:
    """fp16 CSR with short rows, a 200-entry row (the halving branch of the
    pairwise sum), empty rows and magnitudes across every fp16 range."""
    rng = np.random.default_rng(0)
    n = 200
    dense = np.where(rng.random((n, n)) < 0.06,
                     rng.uniform(-1, 1, (n, n)) * np.exp(rng.uniform(-6, 2, (n, n))),
                     0.0)
    dense[7, :] = rng.uniform(-1, 1, n)
    dense[[3, 50, 51], :] = 0.0
    return CSRMatrix.from_dense(dense).astype(Precision.FP16)


def test_registered_and_default():
    assert "native" in available_backends()
    if os.environ.get("REPRO_BACKEND", "").strip().lower() in ("", "native"):
        assert get_backend().name == "native"


# ---------------------------------------------------------------------- #
# The fp16 quantizer
# ---------------------------------------------------------------------- #
class TestQuantizer:
    def _native(self, x32: np.ndarray) -> np.ndarray:
        out = np.empty_like(x32)
        get_backend("native")._lib.quantize32(x32.ctypes.data, out.ctypes.data,
                                               x32.size)
        return out

    def _numpy(self, x32: np.ndarray) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return x32.astype(HALF).astype(np.float32)

    def test_strided_float32_patterns(self):
        # every 4099th of the 2^32 float32 bit patterns (~1M values, all
        # exponents, both signs, inf and NaN among them)
        x = np.arange(0, 2 ** 32, 4099, dtype=np.uint64).astype(np.uint32)
        x32 = x.view(np.float32)
        assert_bit_equal(self._native(x32), self._numpy(x32))

    def test_every_fp16_tie_and_overflow_boundary(self):
        # every finite fp16 value, every midpoint between neighbours (a tie)
        # and the float32 values on either side of it, plus the overflow edge
        h = np.arange(0, 0x7C00, dtype=np.uint16).view(HALF).astype(np.float64)
        mid = (h[:-1] + h[1:]) / 2
        edge = np.array([65504.0, 65519.0, 65519.996, 65520.0, 65535.0, 65536.0,
                         2.0 ** 15, 2.0 ** 15 - 2.0 ** -9, 1e30, np.inf])
        values = np.concatenate([h, mid, edge]).astype(np.float32)
        values = np.concatenate([values, np.nextafter(values, np.float32(0)),
                                 np.nextafter(values, np.float32(np.inf))])
        values = np.concatenate([values, -values])
        assert_bit_equal(self._native(values), self._numpy(values))


# ---------------------------------------------------------------------- #
# Triangular solves
# ---------------------------------------------------------------------- #
class TestTrsv:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("name", ["ilu0", "ic0", "block_ilu0", "long_rows"])
    def test_bitwise_against_reference(self, factors, name, side, dtype, width):
        factor = factors[name][side == "upper"].astype(precision_of_dtype(dtype))
        for i, kind in enumerate(INPUTS):
            b = _operand(kind, factor.nrows, width, dtype, seed=10 * i + 1)
            want = _on("reference", lambda be: be.trsv(factor, b))
            got = _on("native", lambda be: be.trsv(factor, b))
            assert_bit_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    def test_block_column_equals_single_solve(self, factors, dtype):
        lower, _ = factors["block_ilu0"]
        factor = lower.astype(precision_of_dtype(dtype))
        bb = _operand("subnormal", factor.nrows, 8, dtype, seed=3)
        block = _on("native", lambda be: be.trsv(factor, bb))
        for j in range(8):
            col = np.ascontiguousarray(bb[:, j])
            assert_bit_equal(block[:, j], _on("native", lambda be: be.trsv(factor, col)))

    @pytest.mark.parametrize("out", [Precision.FP32, Precision.FP64])
    def test_mixed_precisions(self, factors, out):
        """An fp16 factor with an fp32 right-hand side computes in fp32; an
        fp16 solve may round into a wider output."""
        lower, _ = factors["ilu0"]
        f16 = lower.astype(Precision.FP16)
        b32 = _operand("ordinary", f16.nrows, 2, np.float32, seed=5)
        b16 = _operand("subnormal", f16.nrows, None, HALF, seed=6)
        for run in (lambda be: be.trsv(f16, b32),
                    lambda be: be.trsv(f16, b16, out_precision=out)):
            assert_bit_equal(_on("native", run), _on("reference", run))

    @pytest.mark.parametrize("width", [None, 3])
    def test_counters_equal_fast(self, factors, width):
        lower, upper = factors["block_ilu0"]
        for factor in (lower.astype(Precision.FP16), upper):
            b = _operand("ordinary", factor.nrows, width, factor.precision.dtype, 7)
            totals = {}
            for engine in ("fast", "native"):
                with counting() as traffic:
                    _on(engine, lambda be: be.trsv(factor, b))
                totals[engine] = traffic.summary()
            assert totals["native"] == totals["fast"]

    def test_rejects_mismatched_operands(self, factors):
        lower, _ = factors["ilu0"]
        with pytest.raises(ValueError):
            _on("native", lambda be: be.trsv(lower, np.ones(lower.nrows + 1)))


# ---------------------------------------------------------------------- #
# fp16 CSR products
# ---------------------------------------------------------------------- #
class TestHalfCsr:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kind", INPUTS)
    def test_spmv_csr(self, matrix16, kind, width):
        a = matrix16
        x = _operand(kind, a.ncols, width, HALF, seed=21)

        def run(be):
            return be.spmv_csr(a.values, a.indices, a.indptr, x, scratch=a.scratch())
        assert_bit_equal(_on("native", run), _on("reference", run))

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kind", INPUTS)
    def test_spmv_axpy(self, matrix16, kind, width):
        a = matrix16
        x = _operand(kind, a.ncols, width, HALF, seed=31)
        y = _operand("ordinary" if kind == "nan" else kind, a.nrows, width, HALF,
                     seed=32)

        def run(be):
            return be.spmv_axpy(a.values, a.indices, a.indptr, x, y,
                                out_precision=Precision.FP16, scratch=a.scratch())
        assert_bit_equal(_on("native", run), _on("reference", run))

    @pytest.mark.parametrize("out", [Precision.FP32, Precision.FP64])
    def test_wider_output_and_no_scratch(self, matrix16, out):
        a = matrix16
        x = _operand("subnormal", a.ncols, 2, HALF, seed=41)

        def run(be):
            return be.spmv_csr(a.values, a.indices, a.indptr, x, out_precision=out)
        assert_bit_equal(_on("native", run), _on("reference", run))

    @pytest.mark.parametrize("width", [None, 3])
    def test_counters_equal_fast(self, matrix16, width):
        a = matrix16
        x = _operand("ordinary", a.ncols, width, HALF, seed=51)
        y = _operand("ordinary", a.nrows, width, HALF, seed=52)
        totals = {}
        for engine in ("fast", "native"):
            with counting() as traffic:
                _on(engine, lambda be: (
                    be.spmv_csr(a.values, a.indices, a.indptr, x, scratch=a.scratch()),
                    be.spmv_axpy(a.values, a.indices, a.indptr, x, y,
                                 scratch=a.scratch())))
            totals[engine] = traffic.summary()
        assert totals["native"] == totals["fast"]

    def test_rejects_short_operand(self, matrix16):
        a = matrix16
        x = np.ones(a.ncols - 1, dtype=HALF)
        with pytest.raises(ValueError):
            _on("native", lambda be: be.spmv_csr(a.values, a.indices, a.indptr, x))


# ---------------------------------------------------------------------- #
# Concurrency: the kernels run without the interpreter lock
# ---------------------------------------------------------------------- #
def test_four_threads_on_one_factor_match_serial(factors, matrix16):
    lower, upper = (f.astype(Precision.FP16) for f in factors["block_ilu0"])
    a = matrix16
    rhs = [_operand("subnormal", lower.nrows, None if t % 2 else 3, HALF, seed=60 + t)
           for t in range(4)]
    xs = [_operand("ordinary", a.ncols, None if t % 2 else 3, HALF, seed=70 + t)
          for t in range(4)]

    def work(be, t):
        return (be.trsv(upper, be.trsv(lower, rhs[t])),
                be.spmv_axpy(a.values, a.indices, a.indptr, xs[t], xs[t][:a.nrows],
                             scratch=a.scratch()))

    serial = [_on("native", lambda be, t=t: work(be, t)) for t in range(4)]
    results: dict = {}

    def run(t):
        with use_backend("native"):
            be = get_backend()
            results[t] = [work(be, t) for _ in range(25)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in range(4):
        assert len(results[t]) == 25
        for solve, product in results[t]:
            assert_bit_equal(solve, serial[t][0])
            assert_bit_equal(product, serial[t][1])


# ---------------------------------------------------------------------- #
# Tier 2: random patterns
# ---------------------------------------------------------------------- #
@st.composite
def _triangular_case(draw):
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.9))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < density,
                     rng.uniform(-1, 1, (n, n)) * np.exp(rng.uniform(-8, 8, (n, n))), 0.0)
    dense[np.arange(n), np.arange(n)] = rng.uniform(0.5, 2, n) * rng.choice([-1, 1], n)
    return dense, seed


@pytest.mark.tier2
@settings(deadline=None, max_examples=60)
@given(_triangular_case(), st.sampled_from(DTYPES), st.sampled_from(WIDTHS),
       st.sampled_from(INPUTS), st.booleans())
def test_random_patterns_bitwise(case, dtype, width, kind, unit):
    dense, seed = case
    n = dense.shape[0]
    factors = [TriangularFactor(CSRMatrix.from_dense(np.tril(dense)), lower=True,
                                unit_diagonal=unit),
               TriangularFactor(CSRMatrix.from_dense(np.triu(dense)), lower=False)]
    b = _operand(kind, n, width, dtype, seed)
    for factor in factors:
        f = factor.astype(precision_of_dtype(dtype))
        assert_bit_equal(_on("native", lambda be: be.trsv(f, b)),
                         _on("reference", lambda be: be.trsv(f, b)))
    a = CSRMatrix.from_dense(dense).astype(Precision.FP16)
    x = _operand(kind, n, width, HALF, seed + 1)
    y = _operand("ordinary", n, width, HALF, seed + 2)
    for run in (lambda be: be.spmv_csr(a.values, a.indices, a.indptr, x),
                lambda be: be.spmv_axpy(a.values, a.indices, a.indptr, x, y)):
        assert_bit_equal(_on("native", run), _on("reference", run))
