"""Compiled solve plans: fused-kernel parity, autotuning, plan caching.

Three contracts are pinned here:

* **Fused-vs-unfused parity** — every fused kernel's base-class oracle is
  bit-identical to the unfused kernel sequence it replaces and records the
  same counter totals; the fast engine's overrides agree to compute-precision
  tolerance with identical counters.
* **Staged fp16 arithmetic** — the float32-staged helpers
  (:mod:`repro.backends.halfvec`) are bit-identical to the direct
  ``np.float16`` ufunc chains, including subnormals, overflow-to-inf,
  signed zeros, ties-to-even and non-finite values; the fast engine's
  staged kernels match the ``reference`` backend (or, where no backend
  kernel has the same summation order, the same recipe written in plain
  ``np.float16``) bit for bit.
* **Plans** — the planned fast-engine path agrees with the ``reference``
  oracle (bit for bit wherever both run the same summation order), the
  plan cache is fingerprint-keyed, and the measured autotuner caches
  verdicts in-process and on disk.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import Workspace, get_backend, halfvec, use_backend
from repro.matgen import hpcg_operator, poisson2d
from repro.operators import AssembledOperator, as_operator
from repro.perf import TrafficCounter, counting
from repro.plans import (
    SolvePlan,
    autotune_stats,
    clear_autotune_cache,
    clear_plan_cache,
    measured_assembled_format,
    plan_cache_stats,
    plan_for,
    set_tuning_enabled,
)
from repro.precision import Precision
from repro.sparse import vectorops as vo

pytestmark = pytest.mark.tier1

BACKENDS = ("reference", "fast")


def _bits(a: np.ndarray) -> np.ndarray:
    kind = {2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
    return a.view(kind)


def assert_bit_equal(a: np.ndarray, b: np.ndarray) -> None:
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    assert np.array_equal(nan_a, nan_b)
    assert np.array_equal(_bits(a)[~nan_a], _bits(b)[~nan_b])


def _separable_stencil_fp16(op, x16: np.ndarray) -> np.ndarray:
    """The fast engine's separable stencil sweep as plain ``np.float16``.

    ``y = alpha*x + conv_{D-1}(... conv_0(x))``: each axis pass sums its
    taps in order with zero boundaries, every product and sum rounded to
    fp16 by numpy — the direct recipe the staged sweep must reproduce.
    """
    alpha, taps = op.box_separable()
    shape = op.dims + x16.shape[1:]
    x = x16.reshape(shape)
    cur = x
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for axis, axis_taps in enumerate(taps):
            dim = op.dims[axis]
            index = np.arange(dim).reshape(
                [-1 if d == axis else 1 for d in range(len(shape))])
            acc = np.zeros(shape, np.float16)
            started = np.zeros(shape, bool)
            for j, w in axis_taps:
                term = np.float16(w) * np.roll(cur, -j, axis=axis)
                valid = np.broadcast_to((index + j >= 0) & (index + j < dim),
                                        shape)
                acc = np.where(valid & started, acc + term,
                               np.where(valid, term, acc))
                started = started | valid
            cur = acc
        y = np.float16(alpha) * x + cur if alpha != 0.0 else cur
    return y.reshape(x16.shape)


# ---------------------------------------------------------------------- #
# Staged fp16 arithmetic (halfvec)
# ---------------------------------------------------------------------- #
class TestStagedHalf:
    def _adversarial(self, rng, n=4096):
        vals = np.concatenate([
            rng.uniform(-65504, 65504, n),
            rng.uniform(-7e-5, 7e-5, n),                    # fp16 subnormals
            np.exp(rng.normal(-12, 4, n)) * rng.choice([-1, 1], n),
            [np.inf, -np.inf, np.nan, 0.0, -0.0, 65504.0, -65504.0,
             65519.9, 65520.0, 2.0 ** -14, -(2.0 ** -14), 2.0 ** -24,
             2.0 ** -25, -(2.0 ** -25)],
        ]).astype(np.float32)
        return rng.permutation(vals)

    def test_quantize32_matches_numpy_roundtrip(self):
        rng = np.random.default_rng(0)
        x32 = self._adversarial(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = x32.astype(np.float16)
            got = np.empty(x32.shape, np.float16)
            halfvec.round_into(x32.copy(), got)
        assert_bit_equal(want, got)

    def test_quantize32_random_bit_patterns(self):
        rng = np.random.default_rng(1)
        u = rng.integers(0, 2 ** 32, 200_000, dtype=np.uint64).astype(np.uint32)
        x32 = np.ascontiguousarray(u.view(np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = x32.astype(np.float16)
            got = np.empty(x32.shape, np.float16)
            halfvec.round_into(x32.copy(), got)
        assert_bit_equal(want, got)

    def test_staged_binops_match_direct_fp16(self):
        rng = np.random.default_rng(2)
        x32 = halfvec.quantize32(self._adversarial(rng))
        y32 = halfvec.quantize32(self._adversarial(rng))
        x16 = x32.astype(np.float16)
        y16 = y32.astype(np.float16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for op in (np.add, np.subtract, np.multiply):
                assert_bit_equal(op(x16, y16),
                                 halfvec.binop_round(op, x32, y32))

    def test_staged_axpy_matches_direct_fp16(self):
        rng = np.random.default_rng(3)
        x16 = halfvec.quantize32(self._adversarial(rng)).astype(np.float16)
        y16 = halfvec.quantize32(self._adversarial(rng)).astype(np.float16)
        ws = Workspace()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for alpha in (0.743, -1.0, 1.0, 1000.0, 6e-5, 0.97265625):
                direct = np.float16(alpha) * x16 + y16
                staged = halfvec.staged_axpy(alpha, x16, y16, scratch=ws)
                assert_bit_equal(direct, staged)

    def test_staged_fp16_spmv_bitwise(self, poisson_matrix):
        m16 = poisson_matrix.astype(Precision.FP16)
        rng = np.random.default_rng(4)
        x16 = (rng.uniform(-1, 1, m16.nrows) * 1e-4).astype(np.float16)
        x16_b = np.stack([x16, x16 * np.float16(0.5)], axis=1)
        with use_backend("fast"):
            staged = m16.matvec(x16)
            staged_b = m16.matmat(x16_b)
        with use_backend("reference"):
            direct = m16.matvec(x16)
            direct_b = m16.matmat(x16_b)
        assert_bit_equal(staged, direct)
        assert_bit_equal(staged_b, direct_b)

    def test_staged_fp16_stencil_bitwise(self):
        op = hpcg_operator(8).astype(Precision.FP16)
        rng = np.random.default_rng(5)
        x16 = (rng.uniform(-1, 1, op.nrows) * 1e-4).astype(np.float16)
        x16_b = np.stack([x16, (x16 * np.float16(0.5))], axis=1)
        with use_backend("fast"):
            staged = op.apply(x16, out_precision=Precision.FP16)
            staged_b = op.apply_batch(x16_b, out_precision=Precision.FP16)
        # the reference stencil sums in CSR row order, the fast engine in
        # separable axis passes: the oracle is that recipe in plain fp16
        assert_bit_equal(staged, _separable_stencil_fp16(op, x16))
        assert_bit_equal(staged_b, _separable_stencil_fp16(op, x16_b))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_staged_fp16_jacobi_scale_bitwise(self, backend):
        from repro.precond import JacobiPreconditioner

        op = hpcg_operator(6)
        pre = JacobiPreconditioner(op).astype(Precision.FP16)
        rng = np.random.default_rng(6)
        r16 = (rng.uniform(-1, 1, op.nrows) * 1e-4).astype(np.float16)
        r16_b = np.stack([r16, r16 * np.float16(-3.0)], axis=1)
        inv16 = pre.inv_diag.astype(np.float16)
        with use_backend(backend):
            z = pre.apply(r16)
            z_b = pre.apply_batch(r16_b)
        assert_bit_equal(z, r16 * inv16)
        assert_bit_equal(z_b, r16_b * inv16[:, None])


@pytest.mark.tier2
class TestStagedHalfSweep:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300)
    def test_quantize_single_values(self, ua, ub):
        x32 = np.array([ua, ub], dtype=np.uint32).view(np.float32).copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = x32.astype(np.float16)
            got = np.empty(2, np.float16)
            halfvec.round_into(x32.copy(), got)
        assert_bit_equal(want, got)

    @given(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5),
           st.floats(-1e4, 1e4))
    @settings(max_examples=200)
    def test_axpy_values(self, xv, yv, alpha):
        x16 = np.full(8, xv, dtype=np.float16)
        y16 = np.full(8, yv, dtype=np.float16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct = np.float16(alpha) * x16 + y16
            staged = halfvec.staged_axpy(alpha, x16, y16)
        assert_bit_equal(direct, staged)


# ---------------------------------------------------------------------- #
# Fused backend kernels
# ---------------------------------------------------------------------- #
class TestFusedKernels:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spmv_axpy_parity(self, poisson_matrix, backend):
        rng = np.random.default_rng(7)
        n = poisson_matrix.nrows
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        with use_backend(backend):
            be = get_backend()
            c_unfused, c_fused = TrafficCounter(), TrafficCounter()
            with counting(c_unfused):
                ax = poisson_matrix.matvec(x)
                want = vo.axpy(-1.0, ax, y, out_precision=Precision.FP64)
            with counting(c_fused):
                got = be.spmv_axpy(poisson_matrix.values, poisson_matrix.indices,
                                   poisson_matrix.indptr, x, y,
                                   out_precision=Precision.FP64,
                                   scratch=poisson_matrix.scratch())
        assert c_unfused.summary() == c_fused.summary()
        if backend == "reference":
            assert_bit_equal(want, got)            # the oracle is bit-identical
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spmm_axpy_parity(self, poisson_matrix, backend):
        rng = np.random.default_rng(8)
        n = poisson_matrix.nrows
        X = rng.uniform(-1, 1, (n, 3))
        Y = rng.uniform(-1, 1, (n, 3))
        with use_backend(backend):
            be = get_backend()
            c1, c2 = TrafficCounter(), TrafficCounter()
            with counting(c1):
                AZ = poisson_matrix.matmat(X)
                want = vo.axpy_block(-1.0, AZ, Y, out_precision=Precision.FP64)
            with counting(c2):
                got = be.spmm_axpy(poisson_matrix.values, poisson_matrix.indices,
                                   poisson_matrix.indptr, X, Y,
                                   out_precision=Precision.FP64,
                                   scratch=poisson_matrix.scratch())
        assert c1.summary() == c2.summary()
        if backend == "reference":
            assert_bit_equal(want, got)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("prec", [Precision.FP16, Precision.FP32,
                                      Precision.FP64])
    def test_weighted_update_parity(self, backend, prec):
        rng = np.random.default_rng(9)
        z = rng.uniform(-1, 1, 257).astype(prec.dtype)
        mr = rng.uniform(-1, 1, 257).astype(prec.dtype)
        with use_backend(backend):
            be = get_backend()
            c1, c2 = TrafficCounter(), TrafficCounter()
            with counting(c1):
                want = vo.axpy(0.8371, mr, z.copy(), out_precision=prec)
            with counting(c2):
                got = be.weighted_update(z.copy(), mr, 0.8371, prec,
                                         scratch=Workspace())
        assert c1.summary() == c2.summary()
        assert_bit_equal(want, got)               # bit-identical on both engines

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("prec", [Precision.FP16, Precision.FP32])
    def test_residual_update_parity(self, backend, prec):
        rng = np.random.default_rng(10)
        v = rng.uniform(-1, 1, 193).astype(prec.dtype)
        az = rng.uniform(-1, 1, 193).astype(prec.dtype)
        with use_backend(backend):
            be = get_backend()
            c1, c2 = TrafficCounter(), TrafficCounter()
            with counting(c1):
                want = vo.axpy(-1.0, az, v, out_precision=prec)
            with counting(c2):
                got = be.residual_update(v, az, out_precision=prec,
                                         scratch=Workspace())
        assert c1.summary() == c2.summary()
        assert_bit_equal(want, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_orthonormalize_parity(self, backend):
        rng = np.random.default_rng(11)
        n, m = 211, 6
        prec = Precision.FP32
        with use_backend(backend):
            be = get_backend()
            ws1, ws2 = Workspace(), Workspace()
            basis1 = ws1.get("b", (m + 1, n), prec.dtype)
            basis2 = ws2.get("b", (m + 1, n), prec.dtype)
            v0 = rng.standard_normal(n).astype(np.float32)
            v0 /= np.linalg.norm(v0)
            basis1[0] = v0
            basis2[0] = v0
            for j in range(m - 1):
                w = rng.standard_normal(n).astype(np.float32)
                c1, c2 = TrafficCounter(), TrafficCounter()
                with counting(c1):
                    h1, w1, hn1 = be.orthogonalize(basis1, j, w.copy(),
                                                   prec, scratch=ws1)
                    basis1[j + 1] = vo.scal(1.0 / hn1, w1)
                with counting(c2):
                    h2, hn2, ok = be.orthonormalize(basis2, j, w.copy(),
                                                    prec, scratch=ws2)
                assert ok
                assert c1.summary() == c2.summary()
                assert hn1 == hn2
                assert_bit_equal(np.asarray(h1), np.asarray(h2))
                assert_bit_equal(basis1[j + 1], basis2[j + 1])


# ---------------------------------------------------------------------- #
# Plans: compilation, equivalence, caching
# ---------------------------------------------------------------------- #
class TestSolvePlan:
    def test_kinds_and_apply_equivalence(self, poisson_matrix):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, poisson_matrix.nrows)
        v = rng.uniform(-1, 1, poisson_matrix.nrows)
        op = as_operator(poisson_matrix)
        with use_backend("fast"):
            plan = SolvePlan(op, Precision.FP64)
            assert plan.kind == "csr"
            assert_bit_equal(plan.apply(x),
                             op.apply(x, out_precision=Precision.FP64))
            want = v - op.apply(x, out_precision=Precision.FP64)
            np.testing.assert_allclose(plan.residual(v, x), want,
                                       rtol=1e-13, atol=1e-13)

    def test_stencil_plan(self):
        op = hpcg_operator(6)
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, op.nrows)
        with use_backend("fast"):
            plan = SolvePlan(op, Precision.FP64)
            assert plan.kind == "stencil"
            assert_bit_equal(plan.apply(x),
                             op.apply(x, out_precision=Precision.FP64))
            X = rng.uniform(-1, 1, (op.nrows, 3))
            assert_bit_equal(plan.apply_batch(X),
                             op.apply_batch(X, out_precision=Precision.FP64))

    def test_plan_cache_is_fingerprint_keyed(self, poisson_matrix):
        clear_plan_cache()
        op1 = as_operator(poisson_matrix)
        # an equal-valued but distinct operator object shares the plan
        from repro.sparse import CSRMatrix

        op2 = as_operator(CSRMatrix(poisson_matrix.values.copy(),
                                    poisson_matrix.indices.copy(),
                                    poisson_matrix.indptr.copy(),
                                    poisson_matrix.shape))
        with use_backend("fast"):
            p1 = plan_for(op1, Precision.FP64)
            p2 = plan_for(op2, Precision.FP64)
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats["hits"] >= 1 and stats["cached"] >= 1

    def test_plan_cache_keys_storage_config(self, poisson_matrix):
        # same matrix content, different storage pins: distinct plans (the
        # content fingerprint alone does not cover format=/chunk_size=)
        clear_plan_cache()
        with use_backend("fast"):
            p_csr = plan_for(AssembledOperator(poisson_matrix, format="csr"),
                             Precision.FP64)
            p_ell = plan_for(AssembledOperator(poisson_matrix, format="ell"),
                             Precision.FP64)
        assert p_csr is not p_ell
        assert p_csr.kind == "csr" and p_ell.kind == "ell"

    def test_planned_richardson_bitwise_equals_reference(self, poisson_matrix):
        # the fp16 R level runs every plan kernel of the sweep — fused
        # residual, staged weighted update, fp16 SpMV, fused block-Jacobi
        # solves and the fp32 weight refresh — with no Gram-Schmidt, so the
        # fast engine must match the reference oracle bit for bit
        from repro.precond import BlockJacobiIC0
        from repro.solvers import RichardsonLevel

        m16 = AssembledOperator(poisson_matrix.astype(Precision.FP16))
        v = np.random.default_rng(13).uniform(-1, 1, (poisson_matrix.nrows, 3))
        outputs = {}
        for backend in BACKENDS:
            with use_backend(backend):
                pre = BlockJacobiIC0(poisson_matrix, nblocks=4).astype(Precision.FP16)
                level = RichardsonLevel(m16, pre, m=3, cycle=2)
                outputs[backend] = ([level.apply(v[:, j]) for j in range(3)]
                                    + [level.apply_batch(v)])
        for fast, ref in zip(outputs["fast"], outputs["reference"]):
            assert_bit_equal(fast, ref)

    def test_planned_solve_matches_reference(self, poisson_matrix):
        # whole solves differ only in the FGMRES Gram-Schmidt summation
        # order (BLAS-2 on fast, per-column BLAS-1 on reference)
        from repro.core import F3RConfig, F3RSolver

        rng = np.random.default_rng(14)
        b = rng.uniform(-1, 1, poisson_matrix.nrows)
        results, traffic = {}, {}
        for backend in BACKENDS:
            cfg = F3RConfig(variant="fp16", m1=40, backend=backend)
            traffic[backend] = TrafficCounter()
            with counting(traffic[backend]):
                results[backend] = F3RSolver(poisson_matrix, preconditioner="auto",
                                             nblocks=4, config=cfg).solve(b)
        r_fast, r_ref = results["fast"], results["reference"]
        assert r_fast.converged and r_ref.converged
        assert r_fast.iterations == r_ref.iterations
        assert r_fast.preconditioner_applications == r_ref.preconditioner_applications
        np.testing.assert_allclose(r_fast.x, r_ref.x, rtol=0, atol=1e-12)
        assert traffic["fast"].summary() == traffic["reference"].summary()

    def test_block_jacobi_fused_single_apply_bitwise(self, poisson_matrix):
        from repro.precond import BlockJacobiIC0

        pre = BlockJacobiIC0(poisson_matrix, nblocks=4).astype(Precision.FP16)
        rng = np.random.default_rng(15)
        r = rng.uniform(-1, 1, poisson_matrix.nrows).astype(np.float16)
        with use_backend("fast"):
            fused = pre._apply(r)
            looped = np.concatenate([
                block._apply(r[start:stop])
                for block, (start, stop) in zip(pre._blocks,
                                                pre.partition.blocks())])
        assert_bit_equal(fused, looped)


# ---------------------------------------------------------------------- #
# Measured autotuning
# ---------------------------------------------------------------------- #
class TestAutotune:
    def test_measured_verdict_cached_in_process(self):
        clear_autotune_cache()
        matrix = poisson2d(70)                     # 4900 rows: above the floor
        op = AssembledOperator(matrix.astype(Precision.FP16))
        with use_backend("reference"):
            be = get_backend()
            first = measured_assembled_format(op, be)
            again = measured_assembled_format(op, be)
        assert first in ("csr", "ell")
        assert again == first
        stats = autotune_stats()
        assert stats["measured"] == 1 and stats["hits"] == 1

    def test_disabled_tuning_returns_none(self):
        matrix = poisson2d(70)
        op = AssembledOperator(matrix.astype(Precision.FP16))
        old = set_tuning_enabled(False)
        try:
            with use_backend("reference"):
                assert measured_assembled_format(op, get_backend()) is None
        finally:
            set_tuning_enabled(old)

    def test_tiny_matrices_fall_back_to_cost_model(self, poisson_matrix):
        op = AssembledOperator(poisson_matrix.astype(Precision.FP16))
        with use_backend("reference"):
            assert measured_assembled_format(op, get_backend()) is None

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        cache = tmp_path / "tune.json"
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(cache))
        clear_autotune_cache()
        matrix = poisson2d(70)
        op = AssembledOperator(matrix.astype(Precision.FP16))
        with use_backend("reference"):
            be = get_backend()
            verdict = measured_assembled_format(op, be)
        stored = json.loads(cache.read_text())
        assert list(stored.values()) == [verdict]
        # a fresh process (simulated by clearing memory) reloads the verdict
        clear_autotune_cache()
        with use_backend("reference"):
            assert measured_assembled_format(op, be) == verdict
        assert autotune_stats()["measured"] == 0   # no re-measurement
        clear_autotune_cache()
