"""Staged fp16 kernels: bit for bit against the ``reference`` oracle.

The fast engine runs its fp16 CSR SpMV/SpMM and its
wide-level triangular solves through float32 (:mod:`repro.backends.halfvec`):
products rounded to fp16 on the fp32 grid by the fixed-cost quantizer, fp32
row sums rounded once, and — for factors past the
:data:`~repro.backends.fast.STAGED_LEVEL_GATHERS` width gate — an fp32
solution carried across levels.  Every one of those kernels must equal the
reference backend's direct fp16 ufunc chains bit for bit, on subnormal-heavy
data, overflow to inf, signed zeros and NaN inputs, with one factor on each
side of the gate.  Two whole fp16-F3R solves are pinned by digest, one per
gate side.  Where the compiled ``native`` engine builds, every kernel case
must also give ``fast``'s bits on it, and its solves the same digests.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro import F3RConfig, F3RSolver
from repro.backends import available_backends, get_backend, halfvec, use_backend
from repro.backends.fast import STAGED_LEVEL_GATHERS
from repro.matgen import get_matrix
from repro.precision import Precision
from repro.sparse import CSRMatrix, TriangularFactor, diagonal_scaling

pytestmark = pytest.mark.tier1

HALF = np.float16
INPUTS = ("subnormal", "overflow", "signed_zero", "nan")


def assert_bit_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    assert np.array_equal(nan_a, nan_b)
    kind = {2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
    assert np.array_equal(a.view(kind)[~nan_a], b.view(kind)[~nan_b])


def _vector(kind: str, n: int, seed: int) -> np.ndarray:
    """An fp16 input vector of one adversarial family."""
    rng = np.random.default_rng(seed)
    if kind == "subnormal":      # most values, and nearly all products, subnormal
        x = rng.uniform(-1, 1, n) * 6e-5
    elif kind == "overflow":     # products and sums past 65504 round to ±inf
        x = rng.uniform(-1, 1, n) * 6e4
    elif kind == "signed_zero":  # ±0 mixed with products rounding to ±0
        x = np.where(rng.random(n) < 0.6, 0.0, rng.uniform(-1, 1, n) * 1e-7)
        x = np.where(rng.random(n) < 0.5, -x, x)
        x[rng.random(n) < 0.3] = -0.0
    else:                        # one NaN among ordinary values
        x = rng.uniform(-1, 1, n)
        x[n // 3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return x.astype(HALF)


def _block(kind: str, n: int, seed: int) -> np.ndarray:
    """Three right-hand sides of one family (different draws)."""
    return np.stack([_vector(kind, n, seed + j) for j in range(3)], axis=1)


#: engines that must equal ``fast`` bit for bit (``native`` where it builds)
COMPILED = ("native",) if "native" in available_backends() else ()


def _both(fn):
    """``fn`` on the reference oracle and on ``fast``; on every compiled
    engine it must return exactly what ``fast`` returns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with use_backend("reference"):
            ref = fn()
        with use_backend("fast"):
            fast = fn()
        for engine in COMPILED:
            with use_backend(engine):
                got = fn()
            for a, b in zip(fast, got) if isinstance(fast, tuple) else [(fast, got)]:
                assert_bit_equal(a, b)
    return ref, fast


# ---------------------------------------------------------------------- #
# Fixtures: a sparse matrix and one factor on each side of the width gate
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def matrix16() -> CSRMatrix:
    """fp16 CSR with short, long (past the 8-way pairwise block) and empty
    rows, magnitudes spread so products land in every fp16 range."""
    rng = np.random.default_rng(0)
    n = 160
    dense = np.where(rng.random((n, n)) < 0.06,
                     rng.uniform(-1, 1, (n, n)) * np.exp(rng.uniform(-6, 2, (n, n))),
                     0.0)
    dense[7, :] = rng.uniform(-1, 1, n)          # one 160-entry row
    dense[[3, 50, 51], :] = 0.0                  # empty rows
    return CSRMatrix.from_dense(dense).astype(Precision.FP16)


def _wide_dense(rng, width=96, nlevels=4, deps=6) -> np.ndarray:
    """Lower triangle with ``nlevels`` levels of ``width`` rows: every row
    past level 0 gathers ``deps`` earlier rows, one from the level before."""
    n = width * nlevels
    dense = np.diag(rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n))
    for level in range(1, nlevels):
        lo = level * width
        for r in range(lo, lo + width):
            cols = {int(rng.integers(lo - width, lo))}
            while len(cols) < deps:
                cols.add(int(rng.integers(0, lo)))
            dense[r, sorted(cols)] = rng.uniform(-1, 1, deps)
    return dense


def _chain_dense(rng, n=64) -> np.ndarray:
    """Lower bidiagonal: one row and one gather per level."""
    dense = np.diag(rng.uniform(1.0, 2.0, n))
    dense[np.arange(1, n), np.arange(n - 1)] = rng.uniform(-1, 1, n - 1)
    return dense


def _factor(dense: np.ndarray, lower: bool) -> TriangularFactor:
    return TriangularFactor(CSRMatrix.from_dense(dense), lower=lower).astype(
        Precision.FP16)


@pytest.fixture(scope="module")
def factors() -> dict:
    rng = np.random.default_rng(1)
    wide = _wide_dense(rng)
    chain = _chain_dense(rng)
    return {"wide_lower": _factor(wide, True),
            "wide_upper": _factor(wide[::-1, ::-1].copy(), False),
            "chain_lower": _factor(chain, True),
            "chain_upper": _factor(chain.T.copy(), False)}


def _staged(factor) -> bool:
    """Whether the fast engine stages this factor's fp16 levels."""
    with use_backend("fast"):
        _, (_, _, stage_vals) = get_backend()._trsv_plan_and_vals(
            factor, np.dtype(HALF))
    return stage_vals is not None


# ---------------------------------------------------------------------- #
# The quantizer
# ---------------------------------------------------------------------- #
class TestQuantizer:
    def test_fast_path_matches_numpy_roundtrip(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([
            rng.uniform(-32767, 32767, 4096),
            rng.uniform(-7e-5, 7e-5, 4096),               # fp16 subnormals
            np.exp(rng.normal(-12, 5, 4096)) * rng.choice([-1, 1], 4096),
            [0.0, -0.0, -1e-30, 1e-30, 2.0 ** -25, -(2.0 ** -25),
             3 * 2.0 ** -26, 2.0 ** -14 - 2.0 ** -26, 32767.99],
        ]).astype(np.float32)
        assert np.abs(x).max() < 2.0 ** 15                # no fallback here
        want = x.astype(HALF).astype(np.float32)
        assert_bit_equal(halfvec.quantize32(x.copy()), want)
        out = np.empty_like(x)
        halfvec.quantize32(x, out32=out)
        assert_bit_equal(out, want)

    @pytest.mark.parametrize("trigger", [2.0 ** 15, 65519.0, 65520.0, 1e30,
                                         np.inf, -np.inf, np.nan])
    def test_fallback_branch(self, trigger, monkeypatch):
        rng = np.random.default_rng(3)
        x = (rng.uniform(-1, 1, 257) * 7e-5).astype(np.float32)
        x[::5] *= 1e4
        x[0], x[1] = -0.0, -1e-30
        x[128] = trigger
        calls = []
        exact = halfvec._quantize32_exact
        monkeypatch.setattr(halfvec, "_quantize32_exact",
                            lambda *a: calls.append(1) or exact(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = x.astype(HALF).astype(np.float32)
        assert_bit_equal(halfvec.quantize32(x.copy()), want)
        assert calls, "the fallback branch did not run"


# ---------------------------------------------------------------------- #
# Sparse products
# ---------------------------------------------------------------------- #
class TestStagedProducts:
    @pytest.mark.parametrize("kind", INPUTS)
    def test_csr(self, matrix16, kind):
        x = _vector(kind, matrix16.ncols, 10)
        xb = _block(kind, matrix16.ncols, 20)
        ref, fast = _both(lambda: (matrix16.matvec(x), matrix16.matmat(xb)))
        assert_bit_equal(ref[0], fast[0])
        assert_bit_equal(ref[1], fast[1])


# ---------------------------------------------------------------------- #
# Triangular solves on both sides of the width gate
# ---------------------------------------------------------------------- #
class TestStagedLevelSolves:
    def test_gate_sides(self, factors):
        for name, factor in factors.items():
            wide = factor.off_vals.size >= STAGED_LEVEL_GATHERS * factor.nlevels
            assert wide == name.startswith("wide")
            assert _staged(factor) == wide

    @pytest.mark.parametrize("name", ["wide_lower", "wide_upper",
                                      "chain_lower", "chain_upper"])
    @pytest.mark.parametrize("kind", INPUTS)
    def test_trsv_trsm(self, factors, name, kind):
        factor = factors[name]
        b = _vector(kind, factor.nrows, 50)
        bb = _block(kind, factor.nrows, 60)
        ref, fast = _both(lambda: (factor.solve(b), factor.solve_batch(bb)))
        assert_bit_equal(ref[0], fast[0])
        assert_bit_equal(ref[1], fast[1])
        # a batched column equals its single-RHS solve
        assert_bit_equal(fast[1][:, 0], _both(lambda: factor.solve(bb[:, 0]))[1])

    @pytest.mark.parametrize("out", [Precision.FP32, Precision.FP64])
    def test_wider_output(self, factors, out):
        factor = factors["wide_lower"]
        b = _vector("subnormal", factor.nrows, 70)
        ref, fast = _both(lambda: factor.solve(b, out_precision=out))
        assert_bit_equal(ref, fast)


# ---------------------------------------------------------------------- #
# Whole fp16-F3R solves, pinned by digest
# ---------------------------------------------------------------------- #
#: sha256 of ``result.x`` for a seeded fp16-F3R solve on the fast engine with
#: the default preconditioner.  hpcg_7_7_7 at ``small`` has block-IC(0)
#: factors averaging ~333 gathers per level (staged); G3_circuit at ``tiny``
#: has one-row chains (direct).  The outer levels run fp64/fp32 BLAS: a
#: different BLAS build may round them differently, in which case re-record
#: the digests with a build whose fp16 kernels are known good.
SOLVE_DIGESTS = {
    ("hpcg_7_7_7", "small"):
        "c52faf53e4e5dea9023900a50459452aefc31f69eebb98d7a3c6bc89d526059c",
    ("G3_circuit", "tiny"):
        "62f6f23fbe2dfce62d609c0118afae36ee60923387fc8786929608e7f618c973",
}


def _digest_solve(name: str, scale: str, engine: str):
    matrix, _ = diagonal_scaling(get_matrix(name, scale))
    b = np.random.default_rng(2025).random(matrix.nrows)
    with use_backend(engine):
        solver = F3RSolver(matrix, config=F3RConfig(variant="fp16"))
        result = solver.solve(b)
    return solver, result


@pytest.mark.parametrize("name,scale", sorted(SOLVE_DIGESTS))
def test_fp16_f3r_solve_digest(name, scale):
    solver, result = _digest_solve(name, scale, "fast")
    assert result.converged
    fused = solver.preconditioner.astype(Precision.FP16)._fused_parts()[0]
    wide = fused.off_vals.size >= STAGED_LEVEL_GATHERS * fused.nlevels
    assert wide == (name == "hpcg_7_7_7")           # one operator per gate side
    assert hashlib.sha256(result.x.tobytes()).hexdigest() == SOLVE_DIGESTS[name, scale]


@pytest.mark.skipif(not COMPILED, reason="the native engine does not build here")
@pytest.mark.parametrize("name,scale", sorted(SOLVE_DIGESTS))
def test_fp16_f3r_solve_digest_native(name, scale):
    """The compiled engine reproduces the pinned digests unchanged."""
    _, result = _digest_solve(name, scale, "native")
    assert result.converged
    assert hashlib.sha256(result.x.tobytes()).hexdigest() == SOLVE_DIGESTS[name, scale]
