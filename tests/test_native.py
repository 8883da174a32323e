"""The compiled ``native`` engine: bit for bit against its oracle.

``native`` ports kernels to C — the level-scheduled triangular solve (fp64,
fp32 and fp16 compute), the fp16 CSR products ``spmv_csr`` / ``spmv_axpy``,
the fp32 / fp64 CSR products and fused residuals (fp16-stored × fp32 among
them), the fp16 vector updates ``weighted_update`` / ``residual_update``,
the fp16 ``diag_scale``, the box-separable ``apply_stencil`` sweep (fp64,
fp32 and fp16), the fp32 ↔ fp16 ``cast`` and the Richardson sweep (fp16,
fp32 and fp64) — and inherits everything else from ``fast``.  Here every
ported kernel must equal its oracle bit for bit (NaN by position, not
payload): ``reference``, except for the separable sweep, whose oracle is
``fast``'s sweep.  The operands are lower and upper ILU(0), IC(0), fused
block-ILU(0) and long-row factors, factors whose levels mix rows of every
shape a row-interleaved plan packs (0 to 140 terms, partial and one-row
chunks, a one-row-per-level chain, a row of −0 terms), CSR matrices with
long, short and empty rows and the fp16 serve-open operators the cost
model once stored as sliced ELL, separable stencils on grids with axes of 1, 2,
7 and 24 points, and vectors and blocks of 0 to 9 columns with
fp16-subnormal products, overflow to ±inf, signed zeros and NaN; the casts
also see every fp16 bit pattern and every fp16 rounding boundary, on both
sides of their size gate.  The fp32 / fp64 products must equal ``fast``'s
(scipy's order with the matrix's arena) on the serve-open operators and the
hard operator, with no product of a warm F3R solve reaching ``fast``, and
the Richardson sweep (uniform fp16, fp32 and fp64 levels) the level's loop
on ``fast`` (bits, counters and M's application count) on the serve-open
operators and the hard operator.  The fp16 kernels and the sweeps exist
once per instruction set (``native.ISAS``): each test of them runs the
portable scalar set and, where this CPU has AVX2 + F16C, the vector set,
both reached through the loaded library's symbols.  Counter totals must
equal ``fast``'s, and four threads on shared operands (ctypes releases the
interpreter lock, so they truly overlap) must each match a serial run.

The whole module skips when the host has no C compiler;
``test_native_fallback.py`` covers that path.  With a compiler, the engine
must have registered (its load-time self-check passed) and be the default.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import shutil
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.backends import available_backends, get_backend, native, use_backend
from repro.backends.fast import FastBackend
from repro.backends.workspace import Workspace
from repro.core import F3RConfig, F3RSolver
from repro.matgen import get_matrix, hpcg_matrix, hpcg_operator
from repro.operators import StencilOperator, as_operator
from repro.perf import Traffic, counting
from repro.plans import plan_for
from repro.precision import LevelPrecision, Precision, precision_of_dtype
from repro.precond import (BlockJacobiIC0, BlockJacobiILU0, IC0Preconditioner,
                           ILU0Preconditioner, JacobiPreconditioner)
from repro.precond.base import Preconditioner
from repro.solvers import RichardsonLevel
from repro.sparse import CSRMatrix, TriangularFactor, diagonal_scaling

#: the engine is required wherever a C compiler is present: a kernel that
#: fails its load-time self-check must fail here, not skip
NATIVE_ONLY = pytest.mark.skipif(
    shutil.which((os.environ.get("CC", "").strip() or "cc").split()[0]) is None,
    reason="no C compiler on this host: the native engine cannot be built")
pytestmark = [pytest.mark.tier1, NATIVE_ONLY]

HALF = np.dtype(np.float16)
DTYPES = (np.dtype(np.float64), np.dtype(np.float32), HALF)
#: None: a vector; else an (n, k) block — no columns, one, and widths on
#: both sides of the 8 lanes
WIDTHS = (None, 0, 1, 2, 3, 8, 9)
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
    elif kind == "inf":
        x = rng.uniform(-1, 1, shape)
        x[n // 3] = np.inf
        x[n // 2] = -np.inf
    else:
        x = rng.uniform(-1, 1, shape)
        x[n // 3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return x.astype(dtype)


def _on(engine: str, fn):
    """``fn(backend)`` on a registered engine, or on the native engine with
    the fp16 kernels of one instruction set (an entry of ``native.ISAS``)."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        if engine in native.ISAS:
            with use_backend("native"):
                return fn(native.NativeBackend(get_backend()._lib, engine))
        with use_backend(engine):
            return fn(get_backend())


@pytest.fixture(params=sorted(native.ISAS))
def isa(request) -> str:
    """Each fp16 kernel set: the scalar one everywhere, the AVX2 + F16C one
    where the library has it and this CPU runs it."""
    if request.param not in native.isas(get_backend("native")._lib):
        pytest.skip(f"the {request.param} kernel set does not run on this host")
    return request.param


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
    SPD one (unit L and unit Lᵀ), block-ILU(0) fused over 3 blocks, a
    factor with rows of 130-260 entries, and levels mixing every lane shape
    (:func:`_mixed_factors`)."""
    nonsym, _ = diagonal_scaling(get_matrix("atmosmodd", "tiny"))
    spd, _ = diagonal_scaling(hpcg_matrix(6))
    ilu = ILU0Preconditioner(nonsym)
    ic = IC0Preconditioner(spd)
    dense = _long_rows()
    return {"ilu0": (ilu._lower, ilu._upper),
            "ic0": (ic._lower, ic._upper_t),
            "mixed": _mixed_factors(),
            "block_ilu0": BlockJacobiILU0(nonsym, nblocks=3)._fused_parts()[::2],
            "long_rows": (TriangularFactor(CSRMatrix.from_dense(dense), lower=True),
                          TriangularFactor(CSRMatrix.from_dense(dense[::-1, ::-1].copy()),
                                           lower=False))}


@pytest.fixture(scope="module")
def mixed() -> CSRMatrix:
    """fp16 CSR of 203 rows cycling through ``TERMS`` over 160 columns
    (the rows sorted by length fill 22 chunks and a partial one; the
    140-term rows take one each), plus rows of 5 terms whose values are
    −0."""
    rng = np.random.default_rng(28)
    deps = [rng.choice(160, TERMS[i % len(TERMS)], replace=False) for i in range(195)]
    deps += [rng.choice(160, 5, replace=False) for _ in range(8)]
    a = _rows_csr(deps, 203, rng, diagonal=False)
    a = CSRMatrix(a.values, a.indices, a.indptr, (203, 160))
    a.values[a.indptr[195]:] = -0.0
    return a.astype(Precision.FP16)


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
    """``quantize32`` (scalar ``q16``) against numpy's float32 → float16 →
    float32 round trip, and ``quantize32_avx2`` (the F16C round trip) against
    ``quantize32``."""

    def _native(self, x32: np.ndarray, symbol: str = "quantize32") -> np.ndarray:
        out = np.empty_like(x32)
        getattr(get_backend("native")._lib, symbol)(x32.ctypes.data, out.ctypes.data,
                                                    x32.size)
        return out

    def _f16c(self, x32: np.ndarray) -> np.ndarray:
        if "avx2" not in native.isas(get_backend("native")._lib):
            pytest.skip("no AVX2 + F16C on this host")
        return self._native(x32, "quantize32_avx2")

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
        assert_bit_equal(self._f16c(x32), self._native(x32))

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
        assert_bit_equal(self._f16c(values), self._native(values))

    @pytest.mark.tier2
    def test_f16c_equals_q16_on_every_float32(self):
        """All 2^32 patterns, looped in C: the F16C round trip keeps every
        non-NaN bit of ``q16`` and keeps NaN a NaN."""
        lib = get_backend("native")._lib
        self._f16c(np.zeros(1, dtype=np.float32))            # skips without F16C
        assert lib.quantize32_avx2_disagreements(0, 2 ** 32) == 0


# ---------------------------------------------------------------------- #
# Row-interleaved plans: rows of every lane shape
# ---------------------------------------------------------------------- #
#: term counts a chunk must mix: an empty row, one term, a short row (the
#: rest summed one by one), one 8-term block with and without remainder, two
#: blocks with and without one, and a row whose pairwise sum halves
TERMS = (0, 1, 7, 8, 9, 16, 17, 140)
#: rows of the first level (no dependencies): enough for a 140-term row
BASE = 150


def _rows_csr(deps: list, n: int, rng, diagonal: bool = True) -> CSRMatrix:
    """The n x n matrix whose row r holds the columns ``deps[r]`` (values
    across fp16's range, both signs) and, with ``diagonal``, a diagonal."""
    cols = [np.sort(np.concatenate([d, [r]] if diagonal else [d])).astype(np.int32)
            for r, d in enumerate(deps)]
    vals = [rng.uniform(-1, 1, c.size) * np.exp(rng.uniform(-5, 1, c.size)) for c in cols]
    for r, c in enumerate(cols):
        if diagonal:
            vals[r][c == r] = rng.uniform(1.0, 2.0) * rng.choice([-1.0, 1.0])
    indptr = np.concatenate(([0], np.cumsum([c.size for c in cols]))).astype(np.int32)
    return CSRMatrix(np.concatenate(vals), np.concatenate(cols), indptr, (n, n))


def _mixed_factors() -> tuple:
    """A lower factor (and its mirror image, upper) with custom levels: a
    first level of BASE rows without terms; two levels of 43 and 46 rows
    cycling through ``TERMS``, each row reading at least one row of the
    level before — past their 140-term rows (one-row chunks), 38 rows fill
    4 chunks and a partial one of 6, and 41 rows fill 5 chunks and leave a
    lone straggler; then a chain of 12 one-row levels.
    Row BASE + 3 has three terms whose values are −0 on rows of the first
    level (see :func:`_negative_zero_rhs`)."""
    rng = np.random.default_rng(27)
    levels = [np.arange(BASE)]
    deps = [np.empty(0, dtype=np.int64)] * BASE
    for width in (43, 46):
        before, start = levels[-1], len(deps)
        for i in range(width):
            t = TERMS[i % len(TERMS)]
            d = rng.choice(start, t, replace=False)
            if t and len(levels) > 1:
                d[0] = rng.choice(before)
                d = np.unique(d)
                while d.size < t:
                    d = np.unique(np.concatenate([d, rng.choice(start, t - d.size)]))
            deps.append(np.sort(d))
        levels.append(np.arange(start, start + width))
    deps[BASE + 3] = np.array([0, 1, 2])
    for i in range(12):                         # the chain
        r = len(deps)
        t = TERMS[i % len(TERMS)] or 1
        d = np.unique(np.concatenate([[r - 1], rng.choice(r - 1, t - 1, replace=False)]))
        deps.append(d)
        levels.append(np.array([r]))
    n = len(deps)
    a = _rows_csr(deps, n, rng)
    lo, hi = a.indptr[BASE + 3], a.indptr[BASE + 4]
    a.values[lo:hi][a.indices[lo:hi] != BASE + 3] = -0.0
    for r in (0, 1, 2, BASE + 3):              # positive diagonals there
        at = a.indptr[r] + np.flatnonzero(a.indices[a.indptr[r]:a.indptr[r + 1]] == r)
        a.values[at] = np.abs(a.values[at])
    lower = TriangularFactor(a, lower=True)
    lower.levels = levels
    dense = a.to_dense()[::-1, ::-1]
    mirror = CSRMatrix.from_dense(dense)
    upper = TriangularFactor(mirror, lower=False)
    upper.levels = [n - 1 - rows for rows in levels]
    return lower, upper


def _negative_zero_rhs(factor, dtype) -> np.ndarray:
    """A right-hand side under which row BASE + 3 of the lower mixed factor
    sums three −0 products (its reads are positive) and has b = −0, so
    x = (−0 − sum) · inv is +0 and a +0 sum would make it −0."""
    b = np.abs(_operand("ordinary", factor.nrows, None, dtype, seed=71))
    b[BASE + 3] = -0.0
    return b


# ---------------------------------------------------------------------- #
# Triangular solves
# ---------------------------------------------------------------------- #
class TestTrsv:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("name", ["ilu0", "ic0", "block_ilu0", "long_rows",
                                      "mixed"])
    def test_bitwise_against_reference(self, factors, isa, name, side, dtype, width):
        factor = factors[name][side == "upper"].astype(precision_of_dtype(dtype))
        for i, kind in enumerate(INPUTS):
            b = _operand(kind, factor.nrows, width, dtype, seed=10 * i + 1)
            want = _on("reference", lambda be: be.trsv(factor, b))
            got = _on(isa, lambda be: be.trsv(factor, b))
            assert_bit_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    def test_block_column_equals_single_solve(self, factors, isa, dtype):
        lower, _ = factors["block_ilu0"]
        factor = lower.astype(precision_of_dtype(dtype))
        bb = _operand("subnormal", factor.nrows, 8, dtype, seed=3)
        block = _on(isa, lambda be: be.trsv(factor, bb))
        for j in range(8):
            col = np.ascontiguousarray(bb[:, j])
            assert_bit_equal(block[:, j], _on(isa, lambda be: be.trsv(factor, col)))

    def test_kernel_per_compute_dtype(self, factors):
        """fp64 and fp32 solves run ``trsv_f64`` / ``trsv_f32``; fp16 runs
        ``trsv_f16`` (the scalar set) or ``trsv_f16_avx2``."""
        lower, _ = factors["ilu0"]
        symbols = {str(dtype): native._trsv_plan(lower, dtype)[0] for dtype in DTYPES}
        assert symbols == {"float64": "trsv_f64", "float32": "trsv_f32",
                           "float16": "trsv_f16"}
        lib = get_backend("native")._lib
        for isa, symbol in (("scalar", "trsv_f16"), ("avx2", "trsv_f16_avx2")):
            if isa in native.isas(lib):
                kernels = native.NativeBackend(lib, isa)._half
                assert kernels["trsv_f16"] is getattr(lib, symbol)

    @pytest.mark.parametrize("out", [Precision.FP32, Precision.FP64])
    def test_mixed_precisions(self, factors, isa, out):
        """An fp16 factor with an fp32 right-hand side computes in fp32; an
        fp16 solve may round into a wider output."""
        lower, _ = factors["ilu0"]
        f16 = lower.astype(Precision.FP16)
        b32 = _operand("ordinary", f16.nrows, 2, np.float32, seed=5)
        b16 = _operand("subnormal", f16.nrows, None, HALF, seed=6)
        for run in (lambda be: be.trsv(f16, b32),
                    lambda be: be.trsv(f16, b16, out_precision=out)):
            assert_bit_equal(_on(isa, run), _on("reference", run))

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

    def test_plan_shapes(self):
        """The plan holds every row once, chunks of at most 8 rows of one
        level, every 140-term row and a wide level's lone straggler in a
        chunk of its own, and pads the −0 row's lane."""
        lower, _ = _mixed_factors()
        meta, rows, cols, vals = native._trsv_layout(lower)
        lanes = meta[:, 1]
        assert lanes.min() >= 1 and lanes.max() == 8
        level = np.empty(lower.nrows, dtype=np.int64)
        for i, r in enumerate(lower.levels):
            level[r] = i
        seen = np.concatenate([rows[8 * c:8 * c + m] for c, m in enumerate(lanes)])
        assert np.array_equal(np.sort(seen), np.arange(lower.nrows))
        for c, m in enumerate(lanes):
            assert np.unique(level[rows[8 * c:8 * c + m]]).size == 1
        terms = np.diff(lower.off_rowptr)
        single = rows[8 * np.flatnonzero(lanes == 1)]
        assert set(np.flatnonzero(terms == 140)) <= set(single)
        assert [r for r in single if terms[r] != 140 and level[r] == 2]
        c = np.flatnonzero(rows == BASE + 3)[0] // 8
        off, m, blocks, rest = meta[c]
        assert m > 1 and 8 * blocks + rest > 2      # padded past its 2 rests

    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    def test_negative_zero_row_sum(self, isa, dtype):
        """A row whose terms are all −0: its padding adds −0.0, so its sum
        stays −0 and its x +0; +0.0 padding would flip x to −0."""
        lower, _ = _mixed_factors()
        factor = lower.astype(precision_of_dtype(dtype))
        b = _negative_zero_rhs(factor, dtype)
        got = _on(isa, lambda be: be.trsv(factor, b))
        assert_bit_equal(got, _on("reference", lambda be: be.trsv(factor, b)))
        assert got[BASE + 3] == 0 and not np.signbit(got[BASE + 3])

    def test_rejects_a_broken_dependency(self, factors):
        """Levels whose rows read a row of their own level, or of a later
        one, are refused when the plan is built."""
        lower, _ = _mixed_factors()
        merged = lower.astype(lower.precision)
        merged.levels = [np.concatenate(lower.levels[:2]), *lower.levels[2:]]
        swapped = lower.astype(lower.precision)
        swapped.levels = [lower.levels[0], lower.levels[2], lower.levels[1],
                          *lower.levels[3:]]
        for factor in (merged, swapped):
            b = np.ones(factor.nrows)
            with pytest.raises(ValueError, match="dependency"):
                _on("native", lambda be: be.trsv(factor, b))

    def test_work_buffer_comes_from_the_arena(self, isa):
        """The fp16 solve's fp32 copy of x lives in the factor's per-thread
        arena: one allocation, reused by later solves of any width up to
        it."""
        lower, _ = _mixed_factors()
        factor = lower.astype(Precision.FP16)
        b = _operand("ordinary", factor.nrows, 9, HALF, seed=73)
        _on(isa, lambda be: be.trsv(factor, b))
        arena = factor.scratch()
        before = arena.alloc_count
        for width in (None, 3, 9):
            rhs = b[:, 0].copy() if width is None else np.ascontiguousarray(b[:, :width])
            assert_bit_equal(_on(isa, lambda be: be.trsv(factor, rhs)),
                             _on("reference", lambda be: be.trsv(factor, rhs)))
        assert arena.alloc_count == before

    @pytest.mark.parametrize("mutation", ["+0.0 padding", "a chunk across two levels"])
    def test_self_check_rejects_a_broken_plan(self, isa, monkeypatch, mutation):
        """Padding with +0.0 in place of −0.0, or packing rows of two levels
        into one chunk, fails the load-time self-check."""
        be = native.NativeBackend(get_backend("native")._lib, isa)
        native.self_check(be)
        if mutation == "+0.0 padding":
            def pack(values, dest, size, empty):
                out = np.zeros(size, dtype=values.dtype)
                out[dest] = values
                return out
            monkeypatch.setattr(native, "_pack", pack)
        else:
            interleave = native._interleave
            monkeypatch.setattr(native, "_interleave", lambda levels, *arrays:
                                interleave([np.concatenate(levels)], *arrays))
        with pytest.raises(native.NativeUnavailable, match="trsv"):
            native.self_check(be)


#: the serve-open operators whose fp16 copies the cost model once stored
#: as sliced ELL: they now run the fp16 CSR kernel
ELL_ERA_OPERATORS = ("atmosmodd", "ecology2", "thermal2")


@pytest.fixture(scope="module")
def half_matrices(mixed, matrix16) -> dict:
    """The fp16 CSR operands of the product tests: ``mixed``, ``matrix16``
    and each of ``ELL_ERA_OPERATORS`` at ``tiny``, diagonally scaled."""
    mats = {name: diagonal_scaling(get_matrix(name, "tiny"))[0].astype(Precision.FP16)
            for name in ELL_ERA_OPERATORS}
    return {"mixed": mixed, "matrix16": matrix16, **mats}


# ---------------------------------------------------------------------- #
# fp16 CSR products
# ---------------------------------------------------------------------- #
class TestHalfCsr:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("name", ["matrix16", "mixed", *ELL_ERA_OPERATORS])
    def test_spmv_csr(self, half_matrices, isa, name, kind, width):
        a = half_matrices[name]
        x = _operand(kind, a.ncols, width, HALF, seed=21)

        def run(be):
            return be.spmv_csr(a.values, a.indices, a.indptr, x, scratch=a.scratch())
        assert_bit_equal(_on(isa, run), _on("reference", run))

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("name", ["matrix16", "mixed", *ELL_ERA_OPERATORS])
    def test_spmv_axpy(self, half_matrices, isa, name, kind, width):
        a = half_matrices[name]
        x = _operand(kind, a.ncols, width, HALF, seed=31)
        y = _operand("ordinary" if kind == "nan" else kind, a.nrows, width, HALF,
                     seed=32)

        def run(be):
            return be.spmv_axpy(a.values, a.indices, a.indptr, x, y,
                                out_precision=Precision.FP16, scratch=a.scratch())
        assert_bit_equal(_on(isa, run), _on("reference", run))

    @pytest.mark.parametrize("width", [None, 3, 8])
    def test_row_sum_order(self, isa, width):
        """Rows whose fp32 sums change with the order their terms meet in
        (±2^13 beside values near its half-ulp): any row-sum order but
        numpy's — a lane tree, a short row or a remainder summed otherwise —
        shows after the fp16 rounding."""
        for seed in range(8):
            values, indices, indptr, x = native._cancelling_rows(
                np.random.default_rng(seed))
            if width is not None:
                x = np.repeat(x[:, :1], width, axis=1)
                x[:, ::2] = -x[:, ::2]
            else:
                x = np.ascontiguousarray(x[:, 0])

            def run(be):
                return be.spmv_csr(values, indices, indptr, x)
            assert_bit_equal(_on(isa, run), _on("reference", run))

    @pytest.mark.parametrize("out", [Precision.FP32, Precision.FP64])
    def test_wider_output_and_no_scratch(self, matrix16, isa, out):
        a = matrix16
        x = _operand("subnormal", a.ncols, 2, HALF, seed=41)

        def run(be):
            return be.spmv_csr(a.values, a.indices, a.indptr, x, out_precision=out)
        assert_bit_equal(_on(isa, run), _on("reference", run))

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

    def test_sd_ainv_apply_runs_the_compiled_product(self, monkeypatch):
        """SD-AINV's fp16 apply reaches ``spmv_csr_f16`` with both of its
        SpMVs (thermal2 at ``tiny`` scale): ``CSRMatrix @`` passes each
        factor's arena and int32 indices to the engine."""
        from repro.precond import SDAINVPreconditioner

        matrix, _ = diagonal_scaling(get_matrix("thermal2", "tiny"))
        precond = SDAINVPreconditioner(matrix).astype(Precision.FP16)
        r = _operand("ordinary", matrix.nrows, None, HALF, seed=71)
        want = _on("reference", lambda be: precond.apply(r))
        be = get_backend("native")
        calls = []

        kernel = be._half["spmv_csr_f16"]

        def spy(*args):
            calls.append("spmv_csr_f16")
            return kernel(*args)

        monkeypatch.setattr(be, "_half", {**be._half, "spmv_csr_f16": spy})
        assert_bit_equal(_on("native", lambda be: precond.apply(r)), want)
        assert calls == ["spmv_csr_f16"] * 2

    def test_negative_zero_row_sum(self, mixed, isa):
        """Rows whose terms are all −0 keep a −0 sum: their padding adds
        −0.0."""
        a = mixed
        x = np.abs(_operand("ordinary", a.ncols, 3, HALF, seed=63))
        y = _on(isa, lambda be: be.spmv_csr(a.values, a.indices, a.indptr, x))
        zero_rows = np.flatnonzero(np.diff(a.indptr) == 5)
        assert np.all(y[zero_rows] == 0) and np.all(np.signbit(y[zero_rows]))
        assert_bit_equal(y, _on("reference", lambda be: be.spmv_csr(
            a.values, a.indices, a.indptr, x)))


# ---------------------------------------------------------------------- #
# fp16 vector updates
# ---------------------------------------------------------------------- #
#: None: a vector; else an (n, k) block — 0 columns, one, the 8-wide lanes
#: wrapping mid-row (2, 3, 9) and exactly one row per lane set (8)
UPDATE_WIDTHS = (None, 0, 1, 2, 3, 8, 9)
#: 203 rows: 8-wide passes plus a tail at every width
UPDATE_ROWS = 203


def _weights(width) -> list:
    """One weight, one past fp16's range, and for a block one per column
    (a tiny, a negative and an overflowing one among them)."""
    weights = [0.97, 7.0e4]
    if width is not None:
        per_column = np.random.default_rng(width).uniform(-2, 2, width)
        special = min(width, 3)
        per_column[:special] = [1e-6, -1.7, 3.1e4][:special]
        weights.append(per_column)
    return weights


class TestHalfUpdates:
    @pytest.mark.parametrize("width", UPDATE_WIDTHS)
    @pytest.mark.parametrize("kind", INPUTS)
    def test_weighted_update(self, isa, kind, width):
        mr = _operand(kind, UPDATE_ROWS, width, HALF, seed=81)
        z = _operand("ordinary" if kind == "nan" else kind, UPDATE_ROWS, width, HALF,
                     seed=82)
        for omega in _weights(width):
            def run(be):
                return be.weighted_update(z.copy(), mr, omega, Precision.FP16)
            assert_bit_equal(_on(isa, run), _on("reference", run))

    @pytest.mark.parametrize("width", UPDATE_WIDTHS)
    @pytest.mark.parametrize("kind", INPUTS)
    def test_residual_update(self, isa, kind, width):
        v = _operand(kind, UPDATE_ROWS, width, HALF, seed=91)
        az = _operand("signed_zero" if kind == "nan" else kind, UPDATE_ROWS, width,
                      HALF, seed=92)
        for out in (None, Precision.FP16):
            def run(be):
                return be.residual_update(v, az, out_precision=out)
            assert_bit_equal(_on(isa, run), _on("reference", run))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wider_operands_take_the_inherited_kernels(self, isa, dtype):
        z = _operand("ordinary", UPDATE_ROWS, 3, dtype, seed=95)
        mr = _operand("subnormal", UPDATE_ROWS, 3, HALF, seed=96)
        prec = precision_of_dtype(dtype)
        for run in (lambda be: be.weighted_update(z.copy(), mr, 0.3, prec),
                    lambda be: be.residual_update(z, mr),
                    lambda be: be.residual_update(mr, mr, out_precision=prec)):
            assert_bit_equal(_on(isa, run), _on("reference", run))

    @pytest.mark.parametrize("width", [None, 3])
    def test_counters_equal_fast(self, width):
        mr = _operand("ordinary", UPDATE_ROWS, width, HALF, seed=97)
        z = _operand("ordinary", UPDATE_ROWS, width, HALF, seed=98)
        omega = 0.8 if width is None else np.array([0.8, 1.1, 0.4])
        totals = {}
        for engine in ("fast", "native"):
            with counting() as traffic:
                _on(engine, lambda be: (
                    be.weighted_update(z.copy(), mr, omega, Precision.FP16),
                    be.residual_update(z, mr, out_precision=Precision.FP16)))
            totals[engine] = traffic.summary()
        assert totals["native"] == totals["fast"]


# ---------------------------------------------------------------------- #
# The separable stencil sweep (oracle: fast's sweep)
# ---------------------------------------------------------------------- #
#: None: a vector; else an (n, k) block
STENCIL_WIDTHS = (None, 0, 1, 3, 8, 9)


def _box_stencil(dims, kernels, alpha) -> StencilOperator:
    """The 3-D box stencil ``alpha·I + k0 ⊗ k1 ⊗ k2`` (three taps per axis at
    offsets −1, 0, 1); dyadic weights keep it exactly separable at every
    storage precision."""
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
    values = np.array([kernels[0][i + 1] * kernels[1][j + 1] * kernels[2][m + 1]
                       for i, j, m in offsets])
    values[13] += alpha                      # the centre, offset (0, 0, 0)
    return StencilOperator(dims, offsets, values)


#: ±1 taps and rounded ones on every axis
ROUNDED_TAPS = ((-1.0, 2.5, 0.375), (1.0, -1.0, 1.0), (0.5, 0.75, -1.25))


def _stencils() -> dict:
    """HPCG stencils on grids whose axes are 1, 2, 7 and 24 points long; a
    box stencil with rounded taps, with α = 2.5, α = 0 and an α that rounds
    to 0 in fp16 (so 0 · inf = NaN shows); and a non-separable one."""
    from repro.matgen.operators import convection_diffusion_2d_operator, hpcg_operator

    return {"hpcg_24_7_2": hpcg_operator(24, 7, 2),
            "hpcg_1_24_7": hpcg_operator(1, 24, 7),
            "hpcg_7_2_1": hpcg_operator(7, 2, 1),
            "box_alpha": _box_stencil((7, 2, 24), ROUNDED_TAPS, 2.5),
            "box_no_alpha": _box_stencil((2, 7, 7), ROUNDED_TAPS, 0.0),
            "box_tiny_alpha": _box_stencil((7, 7, 2), ROUNDED_TAPS, 2.0 ** -30),
            "upwind": convection_diffusion_2d_operator(7)}


@pytest.fixture(scope="module")
def stencils() -> dict:
    return _stencils()


class TestStencil:
    @pytest.mark.parametrize("width", STENCIL_WIDTHS)
    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    @pytest.mark.parametrize("name", sorted(_stencils()))
    def test_bitwise_against_fast(self, stencils, isa, name, dtype, width):
        op = stencils[name].astype(precision_of_dtype(dtype))
        for i, kind in enumerate(INPUTS + ("inf",)):
            x = _operand(kind, op.nrows, width, dtype, seed=100 + i)

            def run(be):
                return be.apply_stencil(op, x)
            assert_bit_equal(_on(isa, run), _on("fast", run))

    def test_separable_and_alpha(self, stencils):
        seps = {name: op.box_separable() for name, op in stencils.items()}
        assert seps.pop("upwind") is None
        assert all(sep is not None for sep in seps.values())
        assert seps["box_no_alpha"][0] == 0.0
        assert seps["box_tiny_alpha"][0] != 0.0
        assert np.float16(seps["box_tiny_alpha"][0]) == 0.0

    @pytest.mark.parametrize("out", [None, Precision.FP16, Precision.FP64])
    @pytest.mark.parametrize("mat,vec", [(HALF, np.dtype(np.float32)),
                                         (np.dtype(np.float64), HALF),
                                         (np.dtype(np.float32), HALF)])
    def test_mixed_precisions(self, stencils, isa, mat, vec, out):
        """An fp16 stencil with an fp32 operand computes in fp32, a wider
        stencil with an fp16 operand in the stencil's precision."""
        op = stencils["box_alpha"].astype(precision_of_dtype(mat))
        x = _operand("subnormal", op.nrows, 3, vec, seed=120)

        def run(be):
            return be.apply_stencil(op, x, out_precision=out)
        assert_bit_equal(_on(isa, run), _on("fast", run))

    def test_block_column_equals_single_apply(self, stencils, isa):
        op = stencils["hpcg_24_7_2"].astype(Precision.FP16)
        xx = _operand("overflow", op.nrows, 8, HALF, seed=121)
        block = _on(isa, lambda be: be.apply_stencil(op, xx))
        for j in range(8):
            col = np.ascontiguousarray(xx[:, j])
            assert_bit_equal(block[:, j], _on(isa, lambda be: be.apply_stencil(op, col)))

    def test_kernel_per_compute_dtype(self):
        """Each compute dtype has its sweep in each instruction set:
        ``stencil_sep_f64`` / ``stencil_sep_f32`` / ``stencil_sep_f16`` in
        the scalar one, ``stencil_sep_f64_avx2`` / ``stencil_sep_f32_avx2`` /
        ``stencil_sep_f16_avx2`` in the vector one."""
        assert native._STENCIL == {np.dtype(np.float64): "stencil_sep_f64",
                                   np.dtype(np.float32): "stencil_sep_f32",
                                   HALF: "stencil_sep_f16"}
        lib = get_backend("native")._lib
        for isa in native.isas(lib):
            kernels = native.NativeBackend(lib, isa)._half
            for name in native._STENCIL.values():
                assert kernels[name] is getattr(lib, name + native.ISAS[isa])

    @pytest.mark.parametrize("width", [None, 3])
    def test_counters_equal_fast(self, stencils, width):
        for name in ("hpcg_24_7_2", "box_no_alpha", "upwind"):
            op = stencils[name].astype(Precision.FP16)
            x = _operand("ordinary", op.nrows, width, HALF, seed=122)
            totals = {}
            for engine in ("fast", "native"):
                with counting() as traffic:
                    _on(engine, lambda be: be.apply_stencil(op, x))
                totals[engine] = traffic.summary()
            assert totals["native"] == totals["fast"]

    def test_rejects_mismatched_operand(self, stencils):
        op = stencils["hpcg_7_2_1"]
        with pytest.raises(ValueError):
            _on("native", lambda be: be.apply_stencil(op, np.ones(op.nrows + 1)))


# ---------------------------------------------------------------------- #
# fp16 diagonal scaling
# ---------------------------------------------------------------------- #
class TestDiagScale:
    @pytest.mark.parametrize("width", UPDATE_WIDTHS)
    @pytest.mark.parametrize("kind", INPUTS)
    def test_bitwise_against_reference(self, isa, kind, width):
        x = _operand(kind, UPDATE_ROWS, width, HALF, seed=131)
        for skind in ("ordinary", "overflow", "subnormal"):
            scale = _operand(skind, UPDATE_ROWS, None, HALF, seed=132)
            for out in (None, Precision.FP16, Precision.FP32):
                def run(be):
                    return be.diag_scale(scale, x, out_precision=out)
                assert_bit_equal(_on(isa, run), _on("reference", run))

    @pytest.mark.parametrize("sdtype,xdtype", [(HALF, np.float32), (np.float32, HALF),
                                               (np.float64, HALF),
                                               (np.float32, np.float64)])
    def test_wider_operands_take_the_inherited_kernels(self, isa, sdtype, xdtype):
        x = _operand("subnormal", UPDATE_ROWS, 3, xdtype, seed=133)
        scale = _operand("overflow", UPDATE_ROWS, None, sdtype, seed=134)
        for run in (lambda be: be.diag_scale(scale, x),
                    lambda be: be.diag_scale(scale, x, out_precision=Precision.FP16)):
            assert_bit_equal(_on(isa, run), _on("reference", run))
            assert_bit_equal(_on("fast", run), _on("reference", run))

    @pytest.mark.parametrize("width", [None, 3])
    def test_counters_equal_fast(self, width):
        x = _operand("ordinary", UPDATE_ROWS, width, HALF, seed=135)
        scale = _operand("ordinary", UPDATE_ROWS, None, HALF, seed=136)
        totals = {}
        for engine in ("reference", "fast", "native"):
            with counting() as traffic:
                _on(engine, lambda be: be.diag_scale(scale, x))
            totals[engine] = traffic.summary()
        assert totals["native"] == totals["fast"] == totals["reference"]

    @pytest.mark.parametrize("width", [None, 8])
    def test_jacobi_and_diagmul(self, width):
        """The Jacobi preconditioner and ``vo.diagmul`` run the engine's
        kernel: the same bits and the same counter totals on every engine,
        Jacobi's under its own kernel name."""
        from repro.precond import JacobiPreconditioner
        from repro.sparse import vectorops as vo

        a, _ = diagonal_scaling(hpcg_matrix(6))
        jacobi = JacobiPreconditioner(a, precision=Precision.FP16)
        r = _operand("subnormal", a.nrows, width, HALF, seed=137)
        results, totals = {}, {}
        for engine in ("reference", "fast", "native"):
            with counting() as traffic:
                results[engine] = _on(engine, lambda be: (
                    jacobi.apply(r) if width is None else jacobi.apply_batch(r),
                    vo.diagmul(jacobi.inv_diag, r)))
            totals[engine] = traffic.summary()
        for engine in ("fast", "native"):
            for got, want in zip(results[engine], results["reference"]):
                assert_bit_equal(got, want)
            assert totals[engine] == totals["reference"]
        kernels = totals["native"]["kernel_calls"]
        assert set(kernels) >= {"precond_jacobi", "diag_scale"}


# ---------------------------------------------------------------------- #
# The fp32 <-> fp16 casts
# ---------------------------------------------------------------------- #
#: None: a vector; else an (n, k) block
CAST_WIDTHS = (None, 0, 1, 3, 8, 9)
F32 = np.dtype(np.float32)
#: past every instruction set's gate: the compiled pass on any host
GATE = max(native.CAST_GATE.values())


def _shaped(values: np.ndarray, width) -> np.ndarray:
    """``values`` as a vector, or repeated cyclically into an ``(n, width)``
    block that holds every one of them (``n`` rows even for no columns)."""
    if width is None:
        return values
    rows = -(-values.size // max(width, 1))
    return np.resize(values, rows * width).reshape(rows, width)


def _narrow_boundaries() -> np.ndarray:
    """float32 values at every fp16 rounding boundary: each finite fp16
    value (normal, and subnormal on the 2^-24 grid), the tie between it and
    the next one up and the float32 neighbours of that tie; 65504, the
    largest float32 under 65520 and 65520 itself (which overflows); 0, inf
    and NaNs whose payload lies only below bit 13 — all with both signs."""
    h = np.arange(0, 0x7C00, dtype=np.uint16).view(HALF)
    with np.errstate(over="ignore"):
        up = np.nextafter(h, HALF.type(np.inf)).astype(np.float64)
    tie = ((h.astype(np.float64) + up) / 2).astype(F32)
    edge = np.array([65504.0, np.nextafter(F32.type(65520), F32.type(0)), 65520.0,
                     0.0, np.inf], dtype=F32)
    nans = np.array([0x7F800001, 0x7F800FFF, 0x7F801FFF], dtype=np.uint32).view(F32)
    values = np.concatenate([h.astype(F32), tie, np.nextafter(tie, F32.type(0)),
                             np.nextafter(tie, F32.type(np.inf)), edge, nans])
    return np.concatenate([values, -values])


class TestCast:
    """``cast`` narrows fp32 to fp16 (ties to even) and widens fp16 to fp32
    in one C pass per C-contiguous operand of the instruction set's
    ``CAST_GATE`` entries or more; every other operand and dtype pair is the
    inherited ``astype``."""

    @pytest.mark.parametrize("width", CAST_WIDTHS)
    def test_widen_every_fp16_pattern(self, isa, width):
        x = _shaped(np.arange(2 ** 16, dtype=np.uint16).view(HALF), width)
        run = lambda be: be.cast(x, Precision.FP32)          # noqa: E731
        assert_bit_equal(_on(isa, run), _on("reference", run))

    @pytest.mark.parametrize("width", CAST_WIDTHS)
    def test_narrow_at_every_rounding_boundary(self, isa, width):
        x = _shaped(_narrow_boundaries(), width)
        run = lambda be: be.cast(x, Precision.FP16)          # noqa: E731
        assert_bit_equal(_on(isa, run), _on("reference", run))

    def test_boundary_values(self, isa):
        """The overflow edge and the subnormal ties, element by element."""
        x = np.array([65504.0, 65519.996, 65520.0, 2.0 ** -25, 3 * 2.0 ** -25,
                      2.0 ** -26, -(2.0 ** -25), -0.0] * native.CAST_GATE[isa],
                     dtype=F32)
        got = _on(isa, lambda be: be.cast(x, Precision.FP16))
        assert got[:8].tolist() == [65504.0, 65504.0, np.inf, 0.0, 2.0 ** -23, 0.0,
                                    -0.0, -0.0]
        assert np.signbit(got[6]) and np.signbit(got[7])

    @pytest.mark.parametrize("width", CAST_WIDTHS)
    @pytest.mark.parametrize("kind", INPUTS)
    def test_input_families(self, isa, kind, width):
        for rows in (native.CAST_GATE[isa] // 4 - 1, native.CAST_GATE[isa] + 5):
            x32 = _operand(kind, rows, width, F32, seed=141)
            x16 = _operand(kind, rows, width, HALF, seed=142)
            for x, out in ((x32, Precision.FP16), (x16, Precision.FP32)):
                def run(be):
                    return be.cast(x, out)
                assert_bit_equal(_on(isa, run), _on("reference", run))

    def _spied(self, isa):
        """A native backend of ``isa`` whose compiled casts count their
        calls."""
        be = native.NativeBackend(get_backend("native")._lib, isa)
        calls = []

        def spy(symbol):
            kernel = be._half[symbol]
            return lambda *args: calls.append(symbol) or kernel(*args)

        be._half = {**be._half, **{s: spy(s) for s in ("cast_f32_f16",
                                                       "cast_f16_f32")}}
        return be, calls

    def test_the_gate(self, isa):
        """Below the set's ``CAST_GATE`` entries numpy casts; from it on, C
        does."""
        be, calls = self._spied(isa)
        gate = native.CAST_GATE[isa]
        assert be.cast_gate == gate
        for size in (gate - 4, gate - 1, gate, gate + 4):
            for src, dst in ((F32, Precision.FP16), (HALF, Precision.FP32)):
                for x in (_operand("subnormal", size, None, src, seed=size),
                          _operand("ordinary", size // 4, 4, src, seed=size)):
                    calls.clear()
                    got = _on(isa, lambda _: be.cast(x, dst))
                    assert_bit_equal(got, _on("reference", lambda r: r.cast(x, dst)))
                    assert bool(calls) == (x.size >= gate)

    @pytest.mark.parametrize("src,dst", [(F32, Precision.FP16), (HALF, Precision.FP32)])
    def test_non_contiguous_operands_fall_back(self, isa, src, dst):
        be, calls = self._spied(isa)
        block = _operand("subnormal", native.CAST_GATE[isa], 6, src, seed=143)
        for x in (np.asfortranarray(block), block[:, ::2], block[::2], block.T):
            got = _on(isa, lambda _: be.cast(x, dst))
            want = _on("reference", lambda r: r.cast(x, dst))
            assert_bit_equal(got, want)
            assert got.flags.c_contiguous == want.flags.c_contiguous
        assert calls == []

    @pytest.mark.parametrize("src,dst", [(np.float64, Precision.FP16),
                                         (HALF, Precision.FP64),
                                         (np.float64, Precision.FP32),
                                         (F32, Precision.FP64)])
    def test_other_dtype_pairs_take_the_inherited_kernel(self, isa, src, dst):
        """fp64 -> fp16 rounds once, directly: 1 + 2^-11 + 2^-40 is past
        the tie, so it rounds up, where a detour through fp32 would land on
        the tie and round to even (down)."""
        be, calls = self._spied(isa)
        x = np.resize(np.array([1 + 2.0 ** -11 + 2.0 ** -40]),
                      native.CAST_GATE[isa]).astype(src)
        x[1:] = _operand("subnormal", x.size - 1, None, src, seed=144)
        got = _on(isa, lambda _: be.cast(x, dst))
        assert_bit_equal(got, _on("reference", lambda r: r.cast(x, dst)))
        assert calls == []
        if src == np.float64 and dst == Precision.FP16:
            assert got[0] == np.float16(1 + 2.0 ** -10)

    def test_same_dtype_is_the_operand(self, isa):
        x = _operand("ordinary", native.CAST_GATE[isa], 2, HALF, seed=145)
        with counting() as traffic:
            assert _on(isa, lambda be: be.cast(x, Precision.FP16)) is x
        assert traffic.summary()["kernel_calls"] == {}

    @pytest.mark.parametrize("width", [None, 0, 3])
    def test_counters_equal_reference(self, width):
        totals = {}
        for engine in ("reference", "fast", "native"):
            with counting() as traffic:
                for rows in (7, GATE):
                    for src, dst in ((F32, Precision.FP16), (HALF, Precision.FP32)):
                        x = _operand("ordinary", rows, width, src, seed=146)
                        _on(engine, lambda be: be.cast(x, dst))
                        _on(engine, lambda be: be.cast(x, dst, record=False))
            totals[engine] = traffic.summary()
        assert totals["native"] == totals["fast"] == totals["reference"]
        assert totals["native"]["kernel_calls"].get("cast", 0) == 4 * (
            1 if width is None else width)

    def test_cast_vector_runs_the_engine_kernel(self):
        """``vo.cast_vector`` is the engine's ``cast``: the same bits and
        counter totals on every engine; a cast to the operand's own
        precision returns the operand and records nothing."""
        from repro.sparse import vectorops as vo

        x = _operand("subnormal", GATE, 8, F32, seed=147)
        results, totals = {}, {}
        for engine in ("reference", "fast", "native"):
            with counting() as traffic:
                results[engine] = _on(engine, lambda be: vo.cast_vector(
                    vo.cast_vector(x, Precision.FP16), Precision.FP32))
                assert _on(engine, lambda be: vo.cast_vector(x, Precision.FP32)) is x
            totals[engine] = traffic.summary()
        for engine in ("fast", "native"):
            assert_bit_equal(results[engine], results["reference"])
            assert totals[engine] == totals["reference"]
        assert totals["native"]["kernel_calls"] == {"cast": 16}

    @pytest.mark.parametrize("fault", ["truncating narrow", "flushing widen"])
    def test_self_check_rejects_a_wrong_cast(self, isa, fault):
        """A narrow that rounds toward zero, or a widen that flushes fp16
        subnormals to zero, fails the load-time self-check."""
        be = native.NativeBackend(get_backend("native")._lib, isa)
        symbol = "cast_f32_f16" if fault.endswith("narrow") else "cast_f16_f32"
        kernel = be._half[symbol]

        def view(addr, dtype, size):
            ctype = {2: ctypes.c_uint16, 4: ctypes.c_float}[np.dtype(dtype).itemsize]
            return np.ctypeslib.as_array(ctypes.cast(addr, ctypes.POINTER(ctype)),
                                         (size,)).view(dtype)

        def corrupted(size, src, dst):
            status = kernel(size, src, dst)
            if symbol == "cast_f32_f16":
                x, out = view(src, F32, size), view(dst, HALF, size)
                away = np.abs(out.astype(F32)) > np.abs(x)
                out[away] = np.nextafter(out[away], HALF.type(0))
            else:
                x, out = view(src, HALF, size), view(dst, F32, size)
                out[(x.view(np.uint16) & 0x7C00) == 0] = 0.0
            return status

        native.self_check(be)
        be._half = {**be._half, symbol: corrupted}
        with pytest.raises(native.NativeUnavailable, match="cast"):
            native.self_check(be)


# ---------------------------------------------------------------------- #
# The library: its symbols, its instruction sets and its self-check
# ---------------------------------------------------------------------- #
def test_abi_and_instruction_sets():
    lib = get_backend("native")._lib
    assert lib.repro_native_abi() == native.ABI
    sets = native.isas(lib)
    assert sets == (("scalar", "avx2") if lib.repro_native_avx2() else ("scalar",))
    # the default engine runs the fastest set this CPU has
    assert get_backend("native").isa == sets[-1]
    scalar = native.NativeBackend(lib, "scalar")
    for name in ("trsv_f64", "trsv_f32", "trsv_f16", "spmv_csr_f16", "spmv_axpy_f16", "weighted_update_f16",
                 "residual_update_f16", "stencil_sep_f64", "stencil_sep_f32",
                 "stencil_sep_f16", "diag_scale_f16", "cast_f32_f16", "cast_f16_f32",
                 "richardson_f16", "quantize32", "spmv_csr_f32", "spmv_csr_f64",
                 "spmv_axpy_f32", "spmv_axpy_f64", "richardson_f32", "richardson_f64"):
        assert scalar._half[name] is getattr(lib, name)
    if "avx2" in sets:
        vector = native.NativeBackend(lib, "avx2")
        for name, symbol in (("trsv_f64", "trsv_f64_avx2"),
                             ("trsv_f32", "trsv_f32_avx2"),
                             ("trsv_f16", "trsv_f16_avx2"),
                             ("spmv_csr_f16", "spmv_csr_f16_avx2"),
                             ("spmv_axpy_f16", "spmv_axpy_f16_avx2"),
                             ("weighted_update_f16", "weighted_update_f16_avx2"),
                             ("residual_update_f16", "residual_update_f16_avx2"),
                             ("stencil_sep_f64", "stencil_sep_f64_avx2"),
                             ("stencil_sep_f32", "stencil_sep_f32_avx2"),
                             ("stencil_sep_f16", "stencil_sep_f16_avx2"),
                             ("diag_scale_f16", "diag_scale_f16_avx2"),
                             ("cast_f32_f16", "cast_f32_f16_avx2"),
                             ("cast_f16_f32", "cast_f16_f32_avx2"),
                             ("richardson_f16", "richardson_f16_avx2"),
                             ("quantize32", "quantize32_avx2"),
                             ("spmv_csr_f32", "spmv_csr_f32_avx2"),
                             ("spmv_csr_f64", "spmv_csr_f64_avx2"),
                             ("spmv_axpy_f32", "spmv_axpy_f32_avx2"),
                             ("spmv_axpy_f64", "spmv_axpy_f64_avx2"),
                             ("richardson_f32", "richardson_f32_avx2"),
                             ("richardson_f64", "richardson_f64_avx2")):
            assert vector._half[name] is getattr(lib, symbol)
    else:
        with pytest.raises(native.NativeUnavailable):
            native.NativeBackend(lib, "avx2")


def test_wide_gather_index_takes_the_scalar_kernels(isa):
    """The AVX2 kernels gather at col * k as int32: a call whose operand has
    more than 2^31 - 1 entries runs the scalar kernels instead."""
    be = native.NativeBackend(get_backend("native")._lib, isa)
    assert be._half_kernels(2 ** 20, 2 ** 11 - 1) is be._half
    assert be._half_kernels(2 ** 20, 2 ** 11) is be._scalar
    assert be._half_kernels(2 ** 31, 1) is be._scalar


def test_self_check_rejects_a_differing_kernel(isa):
    """A kernel set whose result differs in one bit fails the load-time
    self-check (here the fp16 triangular solve, corrupted after the call)."""
    be = native.NativeBackend(get_backend("native")._lib, isa)
    native.self_check(be)
    kernel = be._half["trsv_f16"]

    def corrupted(*args):
        status = kernel(*args)
        x16 = ctypes.cast(args[7], ctypes.POINTER(ctypes.c_uint16))
        x16[0] ^= 1
        return status

    be._half = {**be._half, "trsv_f16": corrupted}
    with pytest.raises(native.NativeUnavailable, match="trsv"):
        native.self_check(be)


# ---------------------------------------------------------------------- #
# The compiled Richardson sweep (oracle: RichardsonLevel's loop on fast)
# ---------------------------------------------------------------------- #
#: the six Table-2 surrogates of the e2e serve-open workload
SERVE_OPERATORS = ("hpcg_7_7_7", "atmosmodd", "G3_circuit", "ecology2", "hpgmp_7_7_7",
                   "thermal2")
#: the uniform level precisions the sweep compiles: F3R's fp16 R^m4 and the
#: fp32 and fp64 variants'
SWEEP_PRECISIONS = (Precision.FP16, Precision.FP32, Precision.FP64)
#: a block per invocation: its width and input family
SWEEP_BLOCKS = ((1, "ordinary"), (2, "subnormal"), (4, "signed_zero"), (8, "ordinary"))
#: the weights the sweeps run with: neither is an fp16 or an fp32 value
SWEEP_WEIGHTS = (0.7, 1.3)


@pytest.fixture(scope="module")
def sweep_matrices() -> dict:
    """The serve-open operators at ``tiny`` and the e2e hard operator
    (``vas_stokes_1M`` at ``small``, n = 2,744), diagonally scaled."""
    mats = {name: diagonal_scaling(get_matrix(name, "tiny"))[0]
            for name in SERVE_OPERATORS}
    mats["hard"] = diagonal_scaling(get_matrix("vas_stokes_1M", "small"))[0]
    return mats


def _preconditioner(matrix, kind: str, nblocks: int):
    cls = BlockJacobiILU0 if kind == "ilu0" else BlockJacobiIC0
    return cls(matrix, nblocks=nblocks)


def _block_dtype(prec: Precision) -> np.dtype:
    """The dtype R^m4's residuals arrive in: fp32 from F^m3 for the fp16
    level, the level's own in the uniform variants."""
    return np.dtype(np.float32) if prec is Precision.FP16 else np.dtype(prec.dtype)


def _level(a, m, prec: Precision, cycle: int) -> RichardsonLevel:
    """A Richardson level (m = 2) running uniformly in ``prec``."""
    return RichardsonLevel(a, m, m=2, cycle=cycle,
                           precisions=LevelPrecision(prec, prec, prec))


def _invocations(engine, a, m64, blocks, cycle=10 ** 6, prec=Precision.FP16):
    """Run a fresh Richardson level in ``prec`` (A already stored in it)
    over ``blocks`` on ``engine``: its outputs, counter totals, M's
    application count, and the level."""
    m = m64.astype(prec)
    with use_backend(engine), warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        level = _level(a, m, prec, cycle)
        level.weights[:] = SWEEP_WEIGHTS
        with counting() as traffic:
            zs = [level.apply_batch(v) for v in blocks]
    return zs, traffic.summary(), m.num_applications, level


class TestRichardsonSweep:
    @pytest.mark.parametrize("prec", SWEEP_PRECISIONS, ids=lambda p: p.label)
    @pytest.mark.parametrize("nblocks", [1, 10])
    @pytest.mark.parametrize("kind", ["ilu0", "ic0"])
    @pytest.mark.parametrize("name", [*SERVE_OPERATORS, "hard"])
    def test_equals_the_fast_loop(self, sweep_matrices, name, kind, nblocks, prec):
        """z bits, counter totals and ``num_applications`` of invocations
        of k = 1, 2, 4 and 8 columns, ILU(0) / IC(0) (one block) and their
        block-Jacobi forms, at each precision."""
        matrix = sweep_matrices[name]
        a = as_operator(matrix).astype(prec)
        m64 = _preconditioner(matrix, kind, nblocks)
        blocks = [_operand(family, matrix.nrows, k, _block_dtype(prec), seed=120 + k)
                  for k, family in SWEEP_BLOCKS]
        got, got_traffic, got_apps, level = _invocations("native", a, m64, blocks,
                                                         prec=prec)
        want, want_traffic, want_apps, loop = _invocations("fast", a, m64, blocks,
                                                           prec=prec)
        assert plan_for(a, prec, backend=get_backend("native")).kind == "csr"
        assert len(level._sweeps) == len(SWEEP_BLOCKS)
        assert all(sweep is not None for sweep in level._sweeps.values())
        assert all(sweep is None for sweep in loop._sweeps.values())
        for z, w in zip(got, want, strict=True):
            assert z.dtype == prec.dtype
            assert_bit_equal(z, w)
        assert got_traffic == want_traffic
        assert got_apps == want_apps == 2 * sum(k for k, _ in SWEEP_BLOCKS)

    @pytest.mark.parametrize("prec", SWEEP_PRECISIONS, ids=lambda p: p.label)
    @pytest.mark.parametrize("name", ["atmosmodd", "hpcg_7_7_7"])
    def test_each_instruction_set(self, sweep_matrices, isa, name, prec):
        """The sweep of one instruction set, bound directly, against the
        loop on fast, on inf, NaN and subnormal operands: its kernel is that
        set's ``richardson_f16`` / ``richardson_f32`` / ``richardson_f64``."""
        matrix = sweep_matrices[name]
        a = as_operator(matrix).astype(prec)
        m64 = BlockJacobiIC0(matrix, nblocks=10)
        v = _operand("subnormal", matrix.nrows, 3, prec.dtype, seed=130)
        v[:, 1] = _operand("inf", matrix.nrows, None, prec.dtype, seed=131)
        v[:, 2] = _operand("nan", matrix.nrows, None, prec.dtype, seed=132)
        lib = get_backend("native")._lib
        be = native.NativeBackend(lib, isa)
        with np.errstate(all="ignore"):
            sweep = be.richardson_sweep(plan_for(a, prec, backend=be), m64.astype(prec),
                                        2, v, Traffic(), 6)
            assert sweep is not None
            symbol = {Precision.FP16: "richardson_f16", Precision.FP32: "richardson_f32",
                      Precision.FP64: "richardson_f64"}[prec]
            assert sweep.kernel.func is getattr(lib, symbol + native.ISAS[isa])
            got = sweep(v, np.array(SWEEP_WEIGHTS), Workspace())
        (want,), _, _, _ = _invocations("fast", a, m64, [v], prec=prec)
        assert_bit_equal(got, want)
        assert np.isnan(got[:, 2]).any() and not np.isnan(got[:, 0]).any()

    @pytest.mark.parametrize("prec", SWEEP_PRECISIONS, ids=lambda p: p.label)
    def test_refresh_invocations_update_the_weights_as_fast(self, sweep_matrices,
                                                            monkeypatch, prec):
        """With c = 3, every invocation whose window crosses a multiple of 3
        refreshes the weights through the loop; the rest run the sweep,
        but for the first of each width, the measured loop that binds it."""
        matrix = sweep_matrices["ecology2"]
        a = as_operator(matrix).astype(prec)
        m64 = BlockJacobiILU0(matrix, nblocks=10)
        widths = (1, 1, 2, 1, 4, 1, 1, 2)
        blocks = [_operand("ordinary", matrix.nrows, k, _block_dtype(prec), seed=140 + i)
                  for i, k in enumerate(widths)]
        swept = []
        call = native._Sweep.__call__

        def spy(self, *args):
            swept.append(self.shape[1])
            return call(self, *args)

        monkeypatch.setattr(native._Sweep, "__call__", spy)
        got, got_traffic, got_apps, level = _invocations("native", a, m64, blocks,
                                                         cycle=3, prec=prec)
        want, want_traffic, want_apps, loop = _invocations("fast", a, m64, blocks,
                                                           cycle=3, prec=prec)
        ends = np.cumsum(widths)
        refresh = (ends - np.array(widths)) // 3 != ends // 3
        bound, want_swept = set(), []
        for k in (k for k, r in zip(widths, refresh) if not r):
            if k in bound:
                want_swept.append(k)
            bound.add(k)
        assert swept == want_swept
        assert 0 < len(swept) < len(widths)
        assert np.array_equal(level.weights, loop.weights)
        assert not np.array_equal(level.weights, SWEEP_WEIGHTS)
        assert (level.call_count, level.update_count) == (loop.call_count,
                                                          loop.update_count)
        for z, w in zip(got, want, strict=True):
            assert_bit_equal(z, w)
        assert got_traffic == want_traffic
        assert got_apps == want_apps

    def test_declines_what_it_does_not_compile(self, sweep_matrices):
        matrix = sweep_matrices["hpcg_7_7_7"]
        a16 = as_operator(matrix).astype(Precision.FP16)
        m16 = BlockJacobiIC0(matrix, nblocks=10).astype(Precision.FP16)
        be = get_backend("native")
        v = np.ones((matrix.nrows, 2), dtype=HALF)
        plan = plan_for(a16, Precision.FP16, backend=be)
        assert be.richardson_sweep(plan, m16, 2, v, Traffic(), 4) is not None
        stencil = hpcg_operator(8).astype(Precision.FP16)
        assert stencil.nrows == matrix.nrows
        declined = [
            # fp32 level vectors, and an fp32 M at fp16 vectors
            (plan_for(a16, Precision.FP32, backend=be), m16, v.astype(np.float32)),
            (plan, m16.astype(Precision.FP32), v),
            # a matrix-free product; a preconditioner with no triangular form
            (plan_for(stencil, Precision.FP16, backend=be), m16, v),
            (plan, JacobiPreconditioner(matrix).astype(Precision.FP16), v),
            # a plan of another engine, an empty block, a vector
            (plan_for(a16, Precision.FP16, backend=get_backend("fast")), m16, v),
            (plan, m16, v[:, :0]), (plan, m16, v[:, 0])]
        # uniform fp32 and fp64 compile; mixed precisions do not
        m64 = BlockJacobiIC0(matrix, nblocks=10)
        a64, a32 = as_operator(matrix), as_operator(matrix).astype(Precision.FP32)
        v64 = v.astype(np.float64)
        plan64 = plan_for(a64, Precision.FP64, backend=be)
        for args in ((plan64, m64, v64),
                     (plan_for(a32, Precision.FP32, backend=be),
                      m64.astype(Precision.FP32), v.astype(np.float32))):
            assert be.richardson_sweep(args[0], args[1], 2, args[2], Traffic(),
                                       4) is not None
        declined += [
            # fp64 vectors on an fp32-valued M; an fp32 A at fp64 vectors
            (plan64, m64.astype(Precision.FP32), v64),
            (plan_for(a32, Precision.FP64, backend=be), m64, v64)]
        for args in declined:
            assert be.richardson_sweep(args[0], args[1], 2, args[2], Traffic(),
                                       4) is None
        assert get_backend("fast").richardson_sweep(
            plan_for(a16, Precision.FP16, backend=get_backend("fast")), m16, 2, v,
            Traffic(), 4) is None
        proxy = faults.FaultyBackend(be)
        for a, m, vp in ((a16, m16, v), (a64, m64, v64)):
            prec = precision_of_dtype(vp.dtype)
            assert proxy.richardson_sweep(plan_for(a, prec, backend=proxy), m, 2, vp,
                                          Traffic(), 4) is None

    def test_scipy_order_gates_the_csr_residual(self, sweep_matrices, monkeypatch):
        """Without scipy's fused residual ``fast`` sums an fp32 / fp64 CSR
        residual pairwise, so does the loop on ``native``, and the sweep
        declines it; fp16 CSR A still compiles."""
        matrix = sweep_matrices["hpcg_7_7_7"]
        m64 = BlockJacobiIC0(matrix, nblocks=10)
        be = get_backend("native")
        monkeypatch.setitem(native._SCIPY_ORDER, "spmv_axpy", False)
        for prec, compiled in ((Precision.FP64, False), (Precision.FP32, False),
                               (Precision.FP16, True)):
            a = as_operator(matrix).astype(prec)
            v = np.ones((matrix.nrows, 1), dtype=prec.dtype)
            sweep = be.richardson_sweep(plan_for(a, prec, backend=be), m64.astype(prec),
                                        2, v, Traffic(), 2)
            assert (sweep is not None) == compiled

    @pytest.mark.parametrize("prec", SWEEP_PRECISIONS, ids=lambda p: p.label)
    def test_fault_sites_still_see_the_level(self, sweep_matrices, monkeypatch, prec):
        """Under fault injection R^m4 runs its loop: each step's solves,
        residual product and weighted update reach the proxy."""
        matrix = sweep_matrices["atmosmodd"]
        a = as_operator(matrix).astype(prec)
        m = BlockJacobiILU0(matrix, nblocks=10).astype(prec)
        updates = []
        weighted_update = native.NativeBackend.weighted_update

        def spy(self, *args, **kwargs):
            updates.append(args[1].shape)
            return weighted_update(self, *args, **kwargs)

        monkeypatch.setattr(native.NativeBackend, "weighted_update", spy)
        level = _level(a, m, prec, 10 ** 6)
        v = _operand("ordinary", matrix.nrows, 1, _block_dtype(prec), seed=150)
        plan = faults.FaultPlan(seed=3, rate=1.0, sites=("spmv", "trsv"))
        with use_backend("native"), np.errstate(all="ignore"):
            level.apply_batch(v)             # the measured loop binds the sweep
            updates.clear()
            level.apply_batch(v)
            assert updates == []
            with faults.inject(plan):
                level.apply_batch(v)
        sites = [record.site for record in plan.records]
        assert sites.count("trsv") == 4 and sites.count("spmv") == 1
        assert len(updates) == 2

    def test_a_replaced_apply_keeps_the_loop(self, sweep_matrices, monkeypatch):
        """A wrapper on M's ``apply_batch`` — on the base class, as the e2e
        tracer installs it, or on the instance — and a subclass's own
        ``_apply`` see every application: the level runs its loop, also
        after its sweep was bound, with the sweep's bits."""
        matrix = sweep_matrices["hpcg_7_7_7"]
        a16 = as_operator(matrix).astype(Precision.FP16)
        m16 = BlockJacobiIC0(matrix, nblocks=10).astype(Precision.FP16)
        v = _operand("ordinary", matrix.nrows, 2, np.float32, seed=155)
        applies = []

        class Counted(BlockJacobiIC0):
            def _apply(self, r):
                applies.append(r.shape)
                return super()._apply(r)

        def wrap(apply_batch):
            def counted(*args):
                applies.append(args[-1].shape)
                return apply_batch(*args)
            return counted

        with use_backend("native"), np.errstate(all="ignore"):
            level = RichardsonLevel(a16, m16, m=2, cycle=10 ** 6)
            level.weights[:] = SWEEP_WEIGHTS
            level.apply_batch(v)
            want = level.apply_batch(v)
            assert applies == [] and all(level._sweeps.values())
            with monkeypatch.context() as patch:
                patch.setattr(Preconditioner, "apply_batch",
                              wrap(Preconditioner.apply_batch))
                assert_bit_equal(level.apply_batch(v), want)
            with monkeypatch.context() as patch:
                patch.setattr(m16, "apply_batch", wrap(m16.apply_batch))
                assert_bit_equal(level.apply_batch(v), want)
            assert applies == [v.shape] * 4
            applies.clear()
            assert_bit_equal(level.apply_batch(v), want)
            assert applies == []
            counted = Counted(matrix, nblocks=10).astype(Precision.FP16)
            level = RichardsonLevel(a16, counted, m=2, cycle=10 ** 6)
            level.weights[:] = SWEEP_WEIGHTS
            for _ in range(2):
                assert_bit_equal(level.apply_batch(v), want)
            assert applies == [v.shape] * 4
            assert level._sweeps == {}

    def test_a_used_level_pickles_and_deep_copies(self, sweep_matrices):
        import copy
        import pickle

        matrix = sweep_matrices["thermal2"]
        a16 = as_operator(matrix).astype(Precision.FP16)
        m64 = BlockJacobiIC0(matrix, nblocks=10)
        v = _operand("ordinary", matrix.nrows, 2, np.float32, seed=160)
        _, _, _, level = _invocations("native", a16, m64, [v])
        assert level._sweeps
        with use_backend("native"):
            want = level.apply_batch(v)
            for clone in (pickle.loads(pickle.dumps(level)), copy.deepcopy(level)):
                assert clone._sweeps == {} and clone._plans == {}
                assert_bit_equal(clone.apply_batch(v), want)
                assert clone._sweeps

    @pytest.mark.parametrize("name, variant", [
        ("atmosmodd", "fp16"), ("G3_circuit", "fp16"), ("thermal2", "fp16"),
        *((name, variant) for variant in ("fp32", "fp64")
          for name in ("hard", "hpcg_7_7_7", "atmosmodd", "thermal2"))])
    def test_warm_solve_equals_fast(self, sweep_matrices, monkeypatch, name, variant):
        """A warm F3R solve: answer bits, counter totals, primary-M
        applications and iterations equal on native (sweeps) and fast
        (loops); under native only a refresh invocation reaches
        ``weighted_update``.  The fp32 and fp64 variants run on hard (the
        preconditioner ``auto``) and on serve-open operators."""
        matrix = sweep_matrices[name]
        b = np.random.default_rng(170).standard_normal(matrix.nrows)
        runs = {}
        for engine in ("native", "fast"):
            solver = F3RSolver(matrix, config=F3RConfig(variant=variant, backend=engine))
            solver.solve(b)
            refresh, updates, swept = [None], [], []
            apply_batch = RichardsonLevel.apply_batch
            weighted_update = native.NativeBackend.weighted_update
            call = native._Sweep.__call__

            def spy_level(self, v):
                cntr = self.call_count
                refresh[0] = (self.adaptive
                              and cntr // self.cycle != (cntr + v.shape[1]) // self.cycle)
                return apply_batch(self, v)

            def spy_update(self, *args, **kwargs):
                updates.append(refresh[0])
                return weighted_update(self, *args, **kwargs)

            def spy_sweep(self, *args):
                swept.append(self.dtype)
                return call(self, *args)

            with monkeypatch.context() as patch:
                patch.setattr(RichardsonLevel, "apply_batch", spy_level)
                patch.setattr(native.NativeBackend, "weighted_update", spy_update)
                patch.setattr(native._Sweep, "__call__", spy_sweep)
                with counting() as traffic:
                    result = solver.solve(b)
            runs[engine] = (result.x, traffic.summary(),
                            result.preconditioner_applications, result.iterations)
            if engine == "native":
                assert swept and set(swept) == {np.dtype(variant.replace("fp", "float"))}
                assert all(updates)
        assert_bit_equal(runs["native"][0], runs["fast"][0])
        assert runs["native"][1:] == runs["fast"][1:]
        assert runs["native"][2] > 0


# ---------------------------------------------------------------------- #
# fp32 and fp64 products on assembled storage (oracle: fast's scipy CSR
# products with the matrix's arena)
# ---------------------------------------------------------------------- #
#: None: a vector; else an (n, k) block
PLAIN_WIDTHS = (None, 0, 1, 3, 4, 8)
#: (matrix precision, vector dtype): F^m3's fp16-stored matrix at fp32
#: vectors, F^m2's fp32 and F^m1's fp64, and mixed pairs computed in the
#: wider of the two
PLAIN_PAIRS = ((Precision.FP16, np.float32), (Precision.FP32, np.float32),
               (Precision.FP64, np.float64), (Precision.FP64, np.float32),
               (Precision.FP32, np.float16))
#: the product kernels that native runs instead of fast's
PLAIN_KERNELS = ("spmv_csr", "spmv_axpy")


@pytest.fixture(scope="module")
def plain_storage(sweep_matrices) -> dict:
    """Each serve-open operator and hard at fp16, fp32 and fp64."""
    return {(name, prec): matrix.astype(prec)
            for name, matrix in sweep_matrices.items()
            for prec in (Precision.FP16, Precision.FP32, Precision.FP64)}


def _traced(run):
    """``run(backend)`` and the traffic it records, for ``_on``."""
    def traced(be):
        with counting() as traffic:
            out = run(be)
        return out, traffic.summary()
    return traced


def _plain_run(kernel, csr, x, y, out=None):
    """``run(backend)`` of one product kernel with the matrix's arena."""
    if kernel == "spmv_csr":
        return lambda be: be.spmv_csr(csr.values, csr.indices, csr.indptr, x,
                                      out_precision=out, scratch=csr.scratch())
    return lambda be: be.spmv_axpy(csr.values, csr.indices, csr.indptr, x, y,
                                   out_precision=out, scratch=csr.scratch())


def _fast_spies(monkeypatch) -> list:
    """Record every call that reaches fast's spmv_csr / spmv_axpy (by
    name)."""
    calls = []
    for name in PLAIN_KERNELS:
        original = getattr(FastBackend, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(FastBackend, name, spy)
    return calls


class TestPlainProducts:
    @pytest.mark.parametrize("width", PLAIN_WIDTHS)
    @pytest.mark.parametrize("pair", PLAIN_PAIRS,
                             ids=lambda p: f"{p[0].label}x{np.dtype(p[1]).name}")
    @pytest.mark.parametrize("name", [*SERVE_OPERATORS, "hard"])
    def test_equals_fast(self, plain_storage, isa, name, pair, width):
        """Bits and counter totals of each kernel, computed in the wider
        precision of the pair; the residual's ``y`` (in the compute dtype,
        as fast fuses it) has −0 entries."""
        mat, vdtype = pair
        csr = plain_storage[name, mat]
        x = _operand("ordinary", csr.ncols, width, vdtype, seed=180)
        y = _operand("signed_zero", csr.nrows, width,
                     np.promote_types(csr.values.dtype, vdtype), seed=181)
        for kernel in PLAIN_KERNELS:
            run = _traced(_plain_run(kernel, csr, x, y))
            (got, got_traffic), (want, want_traffic) = _on(isa, run), _on("fast", run)
            assert_bit_equal(got, want)
            assert got_traffic == want_traffic

    @pytest.mark.parametrize("width", [None, 3])
    @pytest.mark.parametrize("kind", ["subnormal", "signed_zero", "inf", "nan"])
    @pytest.mark.parametrize("name", ["hpcg_7_7_7", "atmosmodd"])
    def test_special_operands(self, plain_storage, isa, name, kind, width):
        """Subnormal, ±0, ±inf and NaN entries (x[0] among the infs) at
        fp16 x fp32, fp32 and fp64."""
        for mat, vdtype in PLAIN_PAIRS[:3]:
            csr = plain_storage[name, mat]
            x = _operand(kind, csr.ncols, width, vdtype, seed=182)
            if kind == "inf":
                x[0] = np.inf
            y = _operand(kind, csr.nrows, width, vdtype, seed=183)
            for kernel in PLAIN_KERNELS:
                run = _plain_run(kernel, csr, x, y)
                assert_bit_equal(_on(isa, run), _on("fast", run))

    @pytest.mark.parametrize("out", [Precision.FP32, Precision.FP64])
    def test_wider_output(self, plain_storage, isa, out):
        """A product rounded to a wider precision than it computes in; the
        residual then composes the product and residual_update, as fast
        does."""
        for mat, vdtype in ((Precision.FP16, np.float32), (Precision.FP32, np.float16)):
            csr = plain_storage["thermal2", mat]
            x = _operand("subnormal", csr.ncols, 3, vdtype, seed=184)
            y = _operand("ordinary", csr.nrows, 3, out.dtype, seed=185)
            for kernel in PLAIN_KERNELS:
                run = _traced(_plain_run(kernel, csr, x, y, out=out))
                (got, got_traffic), (want, want_traffic) = _on(isa, run), _on("fast", run)
                assert_bit_equal(got, want)
                assert got_traffic == want_traffic

    def test_runs_the_compiled_kernels(self, plain_storage, monkeypatch):
        """With the matrix's arena no product reaches fast; each binds its
        instruction set's kernel, and the scalar one where the gather
        index col * k might overflow int32 (the limit lowered here)."""
        calls = _fast_spies(monkeypatch)
        lib = get_backend("native")._lib
        csr = plain_storage["atmosmodd", Precision.FP64]
        x = _operand("ordinary", csr.ncols, 3, np.float64, seed=186)
        for isa_name in native.isas(lib):
            be = native.NativeBackend(lib, isa_name)
            for kernel in PLAIN_KERNELS:
                _plain_run(kernel, csr, x, x)(be)
            memo = csr.scratch().memo("native_csr_calls", dict)
            bound = {key[1]: hit[3].kernel.func for key, hit in memo.items()
                     if key[0] is be}
            assert bound == {"spmv_csr": be._half["spmv_csr_f64"],
                             "spmv_axpy": be._half["spmv_axpy_f64"]}
        assert calls == []
        monkeypatch.setattr(native, "_INT32_MAX", 3 * csr.ncols - 1)
        be = native.NativeBackend(lib)
        want = _on("fast", _plain_run("spmv_csr", csr, x, x))
        assert_bit_equal(_plain_run("spmv_csr", csr, x, x)(be), want)
        (hit,) = [hit for key, hit in csr.scratch().memo("native_csr_calls", dict).items()
                  if key[0] is be]
        assert hit[3].kernel.func is lib.spmv_csr_f64

    def test_no_arena_reaches_fast(self, plain_storage, monkeypatch):
        """Without the matrix's arena fast sums pairwise, not in scipy's
        order, and native leaves fp32 / fp64 CSR products to it."""
        calls = _fast_spies(monkeypatch)
        csr = plain_storage["hpcg_7_7_7", Precision.FP32]
        x = _operand("ordinary", csr.ncols, None, np.float32, seed=187)

        def run(be):
            return (be.spmv_csr(csr.values, csr.indices, csr.indptr, x),
                    be.spmv_axpy(csr.values, csr.indices, csr.indptr, x, x))
        got = _on("native", run)
        assert calls == ["spmv_csr", "spmv_axpy", "spmv_csr"]
        for g, w in zip(got, _on("fast", run), strict=True):
            assert_bit_equal(g, w)

    @pytest.mark.parametrize("variant", ["fp16", "fp64"])
    @pytest.mark.parametrize("name", ["hpcg_7_7_7", "atmosmodd", "thermal2", "hard"])
    def test_warm_solve_reaches_no_fast_product(self, sweep_matrices, monkeypatch,
                                                name, variant):
        """A warm F3R solve on serve-open operators and on hard: under
        native no product reaches fast, and the answer bits, counters,
        applications and iterations equal fast's."""
        matrix = sweep_matrices[name]
        b = np.random.default_rng(188).random(matrix.nrows)
        runs = {}
        for engine in ("native", "fast"):
            solver = F3RSolver(matrix, config=F3RConfig(variant=variant, backend=engine))
            solver.solve(b)
            calls = _fast_spies(monkeypatch)
            with counting() as traffic:
                result = solver.solve(b)
            monkeypatch.undo()
            runs[engine] = (result.x, traffic.summary(),
                            result.preconditioner_applications, result.iterations)
            if engine == "native":
                assert calls == []
            else:
                assert calls
        assert_bit_equal(runs["native"][0], runs["fast"][0])
        assert runs["native"][1:] == runs["fast"][1:]


# ---------------------------------------------------------------------- #
# Concurrency: the kernels run without the interpreter lock
# ---------------------------------------------------------------------- #
def test_four_threads_on_one_factor_match_serial(factors, matrix16, stencils):
    lower, upper = (f.astype(Precision.FP16) for f in factors["block_ilu0"])
    a = matrix16
    # one stencil per precision: the threads share each one's stencil plan,
    # and each draws its sweep buffers from its own arena
    ops = [stencils["box_alpha"].astype(p)
           for p in (Precision.FP16, Precision.FP32, Precision.FP64, Precision.FP16)]
    rhs = [_operand("subnormal", lower.nrows, None if t % 2 else 3, HALF, seed=60 + t)
           for t in range(4)]
    xs = [_operand("ordinary", a.ncols, None if t % 2 else 3, HALF, seed=70 + t)
          for t in range(4)]
    grid = [_operand("ordinary", ops[t].nrows, None if t % 2 else 3,
                     ops[t].precision.dtype, seed=80 + t) for t in range(4)]
    # fp32 past the cast gate, so both casts run their compiled pass
    casts = [_operand("subnormal", GATE, None if t % 2 else 3,
                      np.float32, seed=90 + t) for t in range(4)]

    def work(be, t):
        return (be.trsv(upper, be.trsv(lower, rhs[t])),
                be.spmv_axpy(a.values, a.indices, a.indptr, xs[t], xs[t][:a.nrows],
                             scratch=a.scratch()),
                be.weighted_update(rhs[t].copy(), rhs[(t + 2) % 4], 0.9,
                                   Precision.FP16)
                if t < 2 else be.residual_update(rhs[t], rhs[(t + 2) % 4]),
                be.apply_stencil(ops[t], grid[t]),
                be.diag_scale(rhs[t][:, 0] if t % 2 == 0 else rhs[t], rhs[t]),
                be.cast(be.cast(casts[t], Precision.FP16), Precision.FP32))

    serial = [_on("native", lambda be, t=t: work(be, t)) for t in range(4)]
    results: dict = {}
    # a second engine on the same library: the threads build its prebound
    # calls on the shared operands concurrently, from cold
    cold = native.NativeBackend(get_backend("native")._lib)

    def run(t):
        with use_backend("native"):
            results[t] = [work(cold, t) for _ in range(25)]

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
        for outputs in results[t]:
            for got, want in zip(outputs, serial[t], strict=True):
                assert_bit_equal(got, want)


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
@pytest.mark.parametrize("isa_name", sorted(native.ISAS))
def test_random_patterns_bitwise(isa_name, case, dtype, width, kind, unit):
    if isa_name not in native.isas(get_backend("native")._lib):
        pytest.skip(f"the {isa_name} kernel set does not run on this host")
    dense, seed = case
    n = dense.shape[0]
    factors = [TriangularFactor(CSRMatrix.from_dense(np.tril(dense)), lower=True,
                                unit_diagonal=unit),
               TriangularFactor(CSRMatrix.from_dense(np.triu(dense)), lower=False)]
    b = _operand(kind, n, width, dtype, seed)
    for factor in factors:
        f = factor.astype(precision_of_dtype(dtype))
        assert_bit_equal(_on(isa_name, lambda be: be.trsv(f, b)),
                         _on("reference", lambda be: be.trsv(f, b)))
    a = CSRMatrix.from_dense(dense).astype(Precision.FP16)
    x = _operand(kind, n, width, HALF, seed + 1)
    y = _operand("ordinary", n, width, HALF, seed + 2)
    for run in (lambda be: be.spmv_csr(a.values, a.indices, a.indptr, x),
                lambda be: be.spmv_axpy(a.values, a.indices, a.indptr, x, y)):
        assert_bit_equal(_on(isa_name, run), _on("reference", run))
