"""Tests for the instrumented vector kernels."""

import numpy as np
import pytest

from repro.perf import TrafficCounter, counting
from repro.precision import Precision
from repro.sparse import vectorops as vo

pytestmark = pytest.mark.tier1


class TestVectorOps:
    def test_dot_matches_numpy(self, rng):
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        assert vo.dot(x, y) == pytest.approx(float(np.dot(x, y)))

    def test_dot_promotes_mixed_precision(self, rng):
        x = rng.uniform(0.1, 1.0, 50).astype(np.float16)
        y = rng.uniform(0.1, 1.0, 50).astype(np.float32)
        exact = float(np.dot(x.astype(np.float64), y.astype(np.float64)))
        assert vo.dot(x, y) == pytest.approx(exact, rel=1e-3)

    def test_nrm2(self, rng):
        x = rng.standard_normal(64)
        assert vo.nrm2(x) == pytest.approx(float(np.linalg.norm(x)))

    def test_axpy(self, rng):
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        assert np.allclose(vo.axpy(2.5, x, y), 2.5 * x + y)

    def test_axpy_output_precision(self, rng):
        x = rng.standard_normal(16).astype(np.float32)
        y = rng.standard_normal(16).astype(np.float32)
        out = vo.axpy(1.0, x, y, out_precision="fp16")
        assert out.dtype == np.float16

    def test_xpby(self, rng):
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        assert np.allclose(vo.xpby(x, -0.5, y), x - 0.5 * y)

    def test_waxpby(self, rng):
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        assert np.allclose(vo.waxpby(0.3, x, 0.7, y), 0.3 * x + 0.7 * y)

    def test_scal(self, rng):
        x = rng.standard_normal(32)
        assert np.allclose(vo.scal(3.0, x), 3.0 * x)

    def test_vcopy_new_precision(self, rng):
        x = rng.standard_normal(8)
        y = vo.vcopy(x, "fp32")
        assert y.dtype == np.float32 and y is not x

    def test_vzeros(self):
        z = vo.vzeros(10, "fp16")
        assert z.dtype == np.float16 and not z.any()

    def test_cast_vector_noop_same_precision(self):
        x = np.ones(5, dtype=np.float32)
        assert vo.cast_vector(x, "fp32") is x

    def test_traffic_recording(self):
        x = np.ones(1000, dtype=np.float64)
        y = np.ones(1000, dtype=np.float64)
        counter = TrafficCounter()
        with counting(counter):
            vo.dot(x, y)
        assert counter.calls_for("dot") == 1
        assert counter.bytes_for(Precision.FP64) == 2 * 1000 * 8
        assert counter.total_flops == 2000

    def test_fp16_traffic_is_half_of_fp32(self):
        x16 = np.ones(500, dtype=np.float16)
        x32 = np.ones(500, dtype=np.float32)
        with counting() as c16:
            vo.dot(x16, x16)
        with counting() as c32:
            vo.dot(x32, x32)
        assert c16.total_value_bytes * 2 == c32.total_value_bytes
