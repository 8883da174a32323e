"""Tests for the traffic counters, machine models, and timers."""

import time

import numpy as np
import pytest

from repro.perf import (
    CPU_NODE,
    GPU_NODE,
    MachineModel,
    StageTimer,
    Timer,
    TrafficCounter,
    counting,
    current_counter,
    global_counter,
    modeled_time,
    padded_entry_count,
    record_bytes,
    record_flops,
    record_kernel,
    reset_global_counter,
    timed,
)
from repro.backends import available_backends, get_backend
from repro.backends.base import axpy_traffic, spmv_traffic, trsv_traffic
from repro.perf import Traffic, counters_disabled, record
from repro.perf.counters import measuring
from repro.precision import Precision
from repro.sparse import CSRMatrix, TriangularFactor

pytestmark = pytest.mark.tier1

#: every registered kernel engine (``native`` only where it builds)
ENGINES = available_backends()


class TestTrafficCounter:
    def test_accumulation(self):
        c = TrafficCounter()
        c.add_bytes(Precision.FP16, 100)
        c.add_bytes(Precision.FP16, 50)
        c.add_bytes(Precision.FP64, 200)
        c.add_index_bytes(40)
        assert c.bytes_for("fp16") == 150
        assert c.total_value_bytes == 350
        assert c.total_bytes == 390

    def test_flops_and_calls(self):
        c = TrafficCounter()
        c.add_flops(Precision.FP32, 1000)
        c.add_call("spmv")
        c.add_call("spmv", 2)
        assert c.total_flops == 1000
        assert c.calls_for("spmv") == 3

    def test_fp16_fraction(self):
        c = TrafficCounter()
        c.add_bytes(Precision.FP16, 300)
        c.add_bytes(Precision.FP64, 100)
        assert c.low_precision_fraction() == pytest.approx(0.75)

    def test_fp16_fraction_empty(self):
        assert TrafficCounter().low_precision_fraction() == 0.0

    def test_merge_and_copy(self):
        a = TrafficCounter()
        a.add_bytes(Precision.FP32, 10)
        b = TrafficCounter()
        b.add_bytes(Precision.FP32, 5)
        b.add_call("dot")
        a.merge(b)
        assert a.bytes_for("fp32") == 15
        clone = a.copy()
        clone.add_bytes(Precision.FP32, 100)
        assert a.bytes_for("fp32") == 15

    def test_reset(self):
        c = TrafficCounter()
        c.add_bytes(Precision.FP16, 10)
        c.reset()
        assert c.total_bytes == 0

    def test_summary_keys(self):
        c = TrafficCounter()
        c.add_bytes(Precision.FP16, 10)
        c.add_call("spmv")
        summary = c.summary()
        assert summary["bytes"]["fp16"] == 10
        assert summary["kernel_calls"]["spmv"] == 1
        assert "fp16_fraction" in summary


class TestCountingScopes:
    def test_scoped_counter_receives_traffic(self):
        with counting() as counter:
            record_bytes("fp32", 64)
            record_kernel("spmv")
            record_flops("fp32", 10)
        assert counter.bytes_for("fp32") == 64
        assert counter.calls_for("spmv") == 1
        assert counter.total_flops == 10

    def test_nested_scopes_both_receive(self):
        with counting() as outer:
            with counting() as inner:
                record_bytes("fp16", 8)
            record_bytes("fp16", 4)
        assert inner.bytes_for("fp16") == 8
        assert outer.bytes_for("fp16") == 12

    def test_current_counter(self):
        assert current_counter() is None
        with counting() as c:
            assert current_counter() is c
        assert current_counter() is None

    def test_global_counter_always_accumulates(self):
        reset_global_counter()
        record_bytes("fp64", 16)
        assert global_counter().bytes_for("fp64") == 16
        reset_global_counter()

    def test_index_bytes_recorded(self):
        with counting() as counter:
            record_bytes("fp64", 8, index_bytes=4)
        assert counter.index_bytes == 4

    def test_measuring_records_nowhere_else_and_replays_exactly(self):
        def work():
            record_bytes("fp16", 8, index_bytes=4)
            record_kernel("trsv", 2)
            record_flops("fp32", 3)
            record(Traffic.of(calls=[("spmv", 1)], values=[("fp64", 16, 0)]))

        reset_global_counter()
        with counting() as outer, counters_disabled():
            with measuring() as seen, counting() as inner:
                work()
            record_bytes("fp16", 2)          # recording is off again
        assert outer.summary() == TrafficCounter().summary()
        assert global_counter().summary() == TrafficCounter().summary()
        assert inner.summary() == seen.summary() and seen.total_bytes == 28
        with counting() as direct:
            work()
        with counting() as replayed:
            record(Traffic.of_counter(seen))
        assert replayed.summary() == direct.summary() == seen.summary()
        reset_global_counter()


def _delta(before: TrafficCounter, after: TrafficCounter) -> dict:
    """What ``after`` holds beyond ``before``: the nonzero differences of
    bytes, index bytes, flops and calls."""
    keys = ("bytes_by_precision", "flops_by_precision", "kernel_calls")
    out = {key: {k: v - getattr(before, key).get(k, 0)
                 for k, v in getattr(after, key).items()
                 if v != getattr(before, key).get(k, 0)} for key in keys}
    out["index_bytes"] = after.index_bytes - before.index_bytes
    return out


def _lower_factor(precision=Precision.FP64) -> TriangularFactor:
    """A 6-row lower-triangular factor with a few off-diagonals."""
    dense = np.eye(6) * 2.0 + np.tri(6, k=-1) * 0.25
    return TriangularFactor(CSRMatrix.from_dense(dense), lower=True).astype(precision)


class TestTrafficRecords:
    """Precomputed per-call records: built once per argument tuple, added in
    one pass, equal to the ``record_*`` sequences they replace."""

    def test_of_keeps_the_record_functions_rules(self):
        t = Traffic.of(calls=[("spmv", 2), ("dot", 0)],
                       values=[("fp16", 8, 4), (Precision.FP16, 6, 0),
                               (Precision.FP32, 0, 0), (Precision.FP64, 0, 12)],
                       flops=[(Precision.FP32, 10), (Precision.FP64, 0)])
        assert t == Traffic(calls=(("spmv", 2),),
                            value_bytes=((Precision.FP16, 14), (Precision.FP64, 0)),
                            index_bytes=16, flops=((Precision.FP32, 10),))
        with counting() as scoped:
            record(t)
        with counting() as sequence:
            record_kernel("spmv", 2)
            record_kernel("dot", 0)
            record_bytes("fp16", 8, index_bytes=4)
            record_bytes(Precision.FP16, 6)
            record_bytes(Precision.FP32, 0)
            record_bytes(Precision.FP64, 0, index_bytes=12)
            record_flops(Precision.FP32, 10)
            record_flops(Precision.FP64, 0)
        assert scoped.summary() == sequence.summary()

    def test_then_adds_two_records(self):
        a = axpy_traffic(Precision.FP16, Precision.FP16, Precision.FP16,
                         Precision.FP16, 10)
        b = spmv_traffic(Precision.FP16, Precision.FP16, Precision.FP32,
                         Precision.FP16, 10, 30, 164)
        with counting() as both:
            record(a)
            record(b)
        with counting() as merged:
            record(a.then(b))
        assert merged.summary() == both.summary()

    def test_builders_cache_one_record_per_argument_tuple(self):
        args = (Precision.FP16, Precision.FP16, Precision.FP16, Precision.FP32, 729,
                4000, 18920, 3)
        assert spmv_traffic(*args) is spmv_traffic(*args)
        assert spmv_traffic(*args) is not spmv_traffic(*args[:-1], 2)

    def test_factors_of_one_shape_and_two_precisions_get_distinct_records(self):
        f64, f32 = _lower_factor(Precision.FP64), _lower_factor(Precision.FP32)
        p = Precision.FP32
        r64, r32 = trsv_traffic(f64, p, p, p), trsv_traffic(f32, p, p, p)
        assert r64 != r32
        assert dict(r64.value_bytes)[Precision.FP64] == 6 * 8 + 15 * 8
        assert dict(r32.value_bytes)[Precision.FP32] == (6 + 15) * 4 + 2 * 6 * 4
        assert trsv_traffic(f32, p, p, p) is r32

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_kernel_in_two_nested_scopes_records_once_in_each(self, engine):
        """One triangular solve inside two nested ``counting()`` scopes adds
        its record to both scopes and to the global counter exactly once."""
        backend = get_backend(engine)
        factor = _lower_factor(Precision.FP16)
        b = np.linspace(-1.0, 1.0, 6).astype(np.float16)
        with counting() as want:
            record(trsv_traffic(factor, Precision.FP16, Precision.FP16,
                                Precision.FP16))
        before = global_counter().copy()
        with counting() as outer:
            with counting() as inner:
                backend.trsv(factor, b)
        assert inner.summary() == want.summary()
        assert outer.summary() == want.summary()
        assert _delta(before, global_counter()) == _delta(TrafficCounter(), want)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_disabled_counters_record_nothing(self, engine):
        backend = get_backend(engine)
        factor = _lower_factor(Precision.FP16)
        b = np.linspace(-1.0, 1.0, 6).astype(np.float16)
        before = global_counter().copy()
        with counting() as scope:
            with counters_disabled():
                backend.trsv(factor, b)
                backend.residual_update(b, b)
                record(trsv_traffic(factor, Precision.FP16, Precision.FP16,
                                    Precision.FP16))
        assert scope.summary() == TrafficCounter().summary()
        assert global_counter().summary() == before.summary()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_zero_column_block_records_nothing(self, engine):
        backend = get_backend(engine)
        factor = _lower_factor(Precision.FP16)
        matrix = CSRMatrix.from_dense(np.eye(6) + np.tri(6, k=-1)).astype("fp16")
        empty = np.zeros((6, 0), dtype=np.float16)
        before = global_counter().copy()
        with counting() as scope:
            backend.trsv(factor, empty)
            backend.spmv_csr(matrix.values, matrix.indices, matrix.indptr, empty,
                             scratch=matrix.scratch())
            backend.residual_update(empty, empty)
            backend.cast(empty, Precision.FP32)
        assert scope.summary() == TrafficCounter().summary()
        assert global_counter().summary() == before.summary()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_summary_holds_plain_ints_in_its_key_order(self, engine):
        backend = get_backend(engine)
        factor = _lower_factor(Precision.FP16)
        b = np.linspace(-1.0, 1.0, 6).astype(np.float16)
        with counting() as scope:
            backend.trsv(factor, np.stack([b, b], axis=1))
            backend.weighted_update(b.copy(), b, 0.5, Precision.FP16)
            backend.cast(b, Precision.FP32)
        summary = scope.summary()
        assert list(summary) == ["bytes", "index_bytes", "total_bytes", "flops",
                                 "kernel_calls", "fp16_fraction"]
        values = [summary["index_bytes"], summary["total_bytes"],
                  *summary["bytes"].values(), *summary["flops"].values(),
                  *summary["kernel_calls"].values()]
        assert all(type(v) is int for v in values)
        assert summary["kernel_calls"] == {"axpy": 1, "cast": 1, "trsv": 2}


class TestMachineModel:
    def test_time_proportional_to_traffic(self):
        c1 = TrafficCounter(); c1.add_bytes(Precision.FP64, 10**9)
        c2 = TrafficCounter(); c2.add_bytes(Precision.FP64, 2 * 10**9)
        m = MachineModel(name="test", stream_bandwidth=1e9)
        assert m.time_for(c2) == pytest.approx(2 * m.time_for(c1))

    def test_fp16_traffic_is_cheaper_for_same_element_count(self):
        n = 10**7
        c16 = TrafficCounter(); c16.add_bytes(Precision.FP16, 2 * n)
        c64 = TrafficCounter(); c64.add_bytes(Precision.FP64, 8 * n)
        assert CPU_NODE.time_for(c16) < CPU_NODE.time_for(c64)

    def test_latency_terms(self):
        c = TrafficCounter()
        c.add_call("dot", 10)
        c.add_call("spmv", 10)
        m = MachineModel(name="lat", stream_bandwidth=1e12,
                         kernel_latency=1e-6, reduction_latency=1e-5)
        # 20 launches + 10 reductions
        assert m.time_for(c) == pytest.approx(20e-6 + 10e-5)

    def test_gpu_has_higher_bandwidth_and_latency(self):
        from repro.perf import CPU_NODE_FULL, GPU_NODE_FULL

        assert GPU_NODE.stream_bandwidth > CPU_NODE.stream_bandwidth
        assert GPU_NODE_FULL.reduction_latency > CPU_NODE_FULL.reduction_latency

    def test_default_models_are_rooflines(self):
        """The default presets charge traffic only (see machine.py rationale)."""
        assert CPU_NODE.kernel_latency == 0.0 and CPU_NODE.reduction_latency == 0.0
        assert GPU_NODE.kernel_latency == 0.0 and GPU_NODE.reduction_latency == 0.0

    def test_latency_compresses_precision_speedups(self):
        """The Section 5.2 effect: adding per-kernel latency reduces the benefit
        of halving the traffic."""
        from repro.perf import CPU_NODE_FULL

        small = TrafficCounter()
        small.add_bytes(Precision.FP16, 10**6)
        small.add_call("spmv", 100)
        big = TrafficCounter()
        big.add_bytes(Precision.FP64, 4 * 10**6)
        big.add_call("spmv", 100)
        roofline_speedup = CPU_NODE.time_for(big) / CPU_NODE.time_for(small)
        latency_speedup = CPU_NODE_FULL.time_for(big) / CPU_NODE_FULL.time_for(small)
        assert latency_speedup < roofline_speedup

    def test_modeled_time_helper(self):
        c = TrafficCounter()
        c.add_bytes(Precision.FP32, 600 * 10**9)
        assert modeled_time(c, CPU_NODE) == pytest.approx(1.0)

    def test_bandwidth_gbs(self):
        assert CPU_NODE.bandwidth_gbs() == pytest.approx(600.0)

    def test_compute_bound_corner(self):
        """When flops dominate, modeled time follows the flop rate."""
        c = TrafficCounter()
        c.add_flops(Precision.FP64, 3 * 10**12)
        assert CPU_NODE.time_for(c) == pytest.approx(1.0)


class TestSlicedEllpackPadding:
    """The GPU node's sliced-ELLPACK layout, as an entry count."""

    def test_padding_at_least_csr(self, dd_matrix):
        assert padded_entry_count(dd_matrix.row_nnz(), 32) >= dd_matrix.nnz

    def test_uniform_rows_have_no_padding(self):
        # a matrix whose rows all have the same nnz pads nothing
        dense = np.eye(8) * 2 + np.eye(8, k=1) + np.eye(8, k=-1)
        dense[0, -1] = 1.0
        dense[-1, 0] = 1.0
        csr = CSRMatrix.from_dense(dense)
        assert padded_entry_count(csr.row_nnz(), 4) == csr.nnz

    def test_chunk_of_one_row_pads_nothing(self, dd_matrix):
        assert padded_entry_count(dd_matrix.row_nnz(), 1) == dd_matrix.nnz

    def test_partial_chunk_pads_to_full_chunk(self):
        # rows of 1, 3 | 2: two chunks of 2, widths 3 and 2
        assert padded_entry_count([1, 3, 2], 2) == 3 * 2 + 2 * 2
        assert padded_entry_count([], 32) == 0


class TestTimers:
    def test_timer_accumulates(self):
        t = Timer()
        t.start(); time.sleep(0.01); t.stop()
        assert t.elapsed >= 0.005
        t.reset()
        assert t.elapsed == 0.0

    def test_timer_double_start_raises(self):
        t = Timer()
        t.start()
        with pytest.raises(RuntimeError):
            t.start()
        t.stop()

    def test_timer_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_timed_context(self):
        with timed() as t:
            time.sleep(0.005)
        assert t.elapsed >= 0.002

    def test_stage_timer(self):
        st = StageTimer()
        with st.stage("spmv"):
            time.sleep(0.005)
        with st.stage("precond"):
            time.sleep(0.002)
        assert st.total() >= 0.005
        assert 0.0 < st.fraction("spmv") <= 1.0
