"""Process-tier tests: shm lifecycle, REPRO_PROCS bit-identity, crash recovery.

Covers the PR 8 serving stack: the zero-copy shared-memory operator layer
(:mod:`repro.par.shm` — publish/attach roundtrips, refcounted registry,
unlink-on-eviction and leak checks), the ``REPRO_PROCS`` knob, the sharded
gateway's bit-identity contract against the in-process dispatcher for
``REPRO_PROCS`` in {1, 2, 4, auto} over mixed assembled / matrix-free
traffic, worker-death injection that kills *real* processes (and the
respawn + retry recovery), and workers warming their factorizations from
``REPRO_ARTIFACTS`` instead of refactorizing (the workers are genuine
spawned subprocesses — each warm run is a fresh interpreter).

Determinism note: the comparisons pin ``max_workers=1`` on the in-process
dispatcher — with several worker *threads* the shared solver's adaptive
Richardson weights make concurrent batches order-dependent (a pre-existing
dispatcher property); the gateway's per-fingerprint shard serializes
batches by construction.
"""

import numpy as np
import pytest

import repro
import repro.cache as cache
from repro.matgen import hpcg_matrix
from repro.operators import AssembledOperator, StencilOperator
from repro.par import (
    ShmRegistry,
    attach_arrays,
    configured_procs,
    operator_from_payload,
    operator_payload,
    publish_arrays,
    resolve_procs,
    segment_exists,
    set_procs,
    use_procs,
)
from repro.par.procpool import WorkerDied, _parse_procs
from repro.serve import BatchDispatcher, ShardedGateway, route_fingerprint
from repro.sparse import diagonal_scaling
from repro.sparse.triangular import clear_levels_memo

pytestmark = pytest.mark.tier1


@pytest.fixture(autouse=True)
def _pin_determinism(monkeypatch):
    """Spawned workers read the environment: disable measured autotune so a
    worker's format choice can never depend on per-process timing."""
    monkeypatch.setenv("REPRO_TUNE", "0")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
    yield


@pytest.fixture
def artifacts(tmp_path):
    old = cache.set_artifacts_dir(str(tmp_path / "artifacts"))
    cache.reset_cold_start_stats()
    clear_levels_memo()
    try:
        yield tmp_path / "artifacts"
    finally:
        cache.set_artifacts_dir(old)
        cache.reset_cold_start_stats()
        clear_levels_memo()


def _mixed_traffic(n_rhs: int = 6):
    """(operators, rhs) mixing an assembled matrix with a matrix-free stencil."""
    A, _ = diagonal_scaling(hpcg_matrix(6))
    assembled = AssembledOperator(A)
    dims = (6, 6, 6)
    offsets = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
               (0, 0, 1), (0, 0, -1)]
    stencil = StencilOperator(dims, offsets, [6.5, -1, -1, -1, -1, -1, -1])
    rng = np.random.default_rng(42)
    pairs = []
    for i in range(n_rhs):
        op = assembled if i % 2 == 0 else stencil
        pairs.append((op, rng.random(op.nrows)))
    return pairs


# ---------------------------------------------------------------------- #
# REPRO_PROCS knob
# ---------------------------------------------------------------------- #
class TestProcsKnob:
    def test_parse(self):
        assert _parse_procs(None) == 1
        assert _parse_procs("") == 1
        assert _parse_procs("3") == 3
        assert _parse_procs(5) == 5
        assert _parse_procs("auto") >= 1
        with pytest.raises(ValueError):
            _parse_procs("several")

    def test_set_and_scope(self):
        old = set_procs(3)
        try:
            assert configured_procs() == 3
            with use_procs("auto"):
                assert configured_procs() >= 1
            assert configured_procs() == 3
            assert resolve_procs(None) == 3
            assert resolve_procs(2) == 2
        finally:
            set_procs(old)

    def test_package_exports(self):
        assert repro.configured_procs() == configured_procs()


class TestRouting:
    def test_stable_and_in_range(self):
        fps = [f"fp-{i}" for i in range(64)]
        for n in (1, 2, 4, 7):
            shards = [route_fingerprint(fp, n) for fp in fps]
            assert shards == [route_fingerprint(fp, n) for fp in fps]
            assert all(0 <= s < n for s in shards)
        # rendezvous spreads: with 64 fingerprints on 4 shards every shard
        # should see traffic
        assert len(set(route_fingerprint(fp, 4) for fp in fps)) == 4


# ---------------------------------------------------------------------- #
# Shared-memory layer
# ---------------------------------------------------------------------- #
class TestShmLayer:
    def test_publish_attach_roundtrip(self):
        arrays = {"a": np.arange(10, dtype=np.float64),
                  "b": np.arange(6, dtype=np.int32).reshape(2, 3)}
        descriptor, shm = publish_arrays(arrays, {"kind": "test"})
        try:
            attached = attach_arrays(descriptor)
            assert np.array_equal(attached.arrays["a"], arrays["a"])
            assert np.array_equal(attached.arrays["b"], arrays["b"])
            assert not attached.arrays["a"].flags.writeable
            assert attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_close_refuses_while_a_view_is_alive(self):
        """A slice still held elsewhere (a cached plan, say) keeps the
        mapping: closing under it would leave the view dangling."""
        descriptor, shm = publish_arrays({"a": np.arange(10.0)}, {})
        try:
            attached = attach_arrays(descriptor)
            held = attached.arrays["a"][2:5]
            assert not attached.close()
            assert held.sum() == 9.0          # still mapped, still readable
            del held
            assert attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_operator_payloads_roundtrip_bitwise(self):
        pairs = _mixed_traffic(2)
        for op, _ in pairs:
            arrays, meta = operator_payload(op)
            rebuilt = operator_from_payload(
                {k: np.copy(v) for k, v in arrays.items()}, meta)
            assert rebuilt.fingerprint() == op.fingerprint()
            x = np.random.default_rng(0).random(op.nrows)
            assert np.array_equal(op.apply(x), rebuilt.apply(x))

    def test_registry_idempotent_and_evict_unlinks(self):
        registry = ShmRegistry(max_published=4)
        arrays = {"a": np.ones(16)}
        d1 = registry.publish("k1", arrays, {"kind": "test"})
        d2 = registry.publish("k1", arrays, {"kind": "test"})
        assert d1.segment == d2.segment
        assert registry.stats()["published"] == 1
        assert segment_exists(d1.segment)
        evicted = registry.evict("k1")
        assert evicted is not None and not segment_exists(d1.segment)
        assert len(registry) == 0
        registry.close()

    def test_registry_lru_bound_spares_referenced(self):
        registry = ShmRegistry(max_published=2)
        descs = {}
        for i, key in enumerate(("k0", "k1", "k2")):
            if key == "k0":
                descs[key] = registry.publish(key, {"a": np.ones(8)}, {})
                registry.acquire(key)    # pinned: must survive overflow
            else:
                descs[key] = registry.publish(key, {"a": np.ones(8)}, {})
        assert len(registry) == 2
        assert "k0" in registry.keys()           # referenced entry survived
        assert not segment_exists(descs["k1"].segment)   # LRU victim
        registry.release("k0")
        registry.close()
        for d in descs.values():
            assert not segment_exists(d.segment)

    def test_close_unlinks_everything(self):
        registry = ShmRegistry()
        segments = [registry.publish(f"k{i}", {"a": np.ones(8)}, {}).segment
                    for i in range(3)]
        registry.close()
        assert len(registry) == 0
        for name in segments:
            assert not segment_exists(name)


# ---------------------------------------------------------------------- #
# Bit-identity across REPRO_PROCS
# ---------------------------------------------------------------------- #
class TestGatewayBitIdentity:
    def test_procs_sweep_matches_dispatcher(self):
        """{1, 2, 4, auto} all reproduce the in-process dispatcher bit for
        bit on mixed assembled/matrix-free traffic, and no shm segment
        survives gateway close."""
        pairs = _mixed_traffic(6)
        config = repro.F3RConfig()
        with BatchDispatcher(config, max_batch=3, max_workers=1) as d:
            reference = d.solve_many(pairs)
        assert all(r.converged for r in reference)

        for procs in (1, 2, 4, "auto"):
            gateway = ShardedGateway(config, procs=procs, max_batch=3,
                                     max_workers=1)
            with gateway:
                results = gateway.solve_many(pairs)
                summary = gateway.stats.summary()
                segments = (list(gateway.registry.segments())
                            if gateway.registry is not None else [])
            for ref, got in zip(reference, results):
                assert np.array_equal(ref.x, got.x), f"procs={procs}"
                assert ref.iterations == got.iterations
            assert summary["requests"] == len(pairs)
            if gateway.nprocs > 1:
                assert summary["procs"]["mode"] == "process-pool"
                workers = summary["procs"]["workers"]
                assert workers["requests"] == len(pairs)
                assert workers["shm_bytes"] > 0
                # zero-copy: both operator families published, none pickled
                assert workers["pickled_setups"] == 0
            else:
                assert summary["procs"]["mode"] == "in-process"
            # leak check: every segment the gateway published is unlinked
            for name in segments:
                assert not segment_exists(name)

    def test_gateway_eviction_unlinks_and_recovers(self):
        pairs = _mixed_traffic(4)
        config = repro.F3RConfig()
        with ShardedGateway(config, procs=2, max_batch=2,
                            max_workers=1) as gateway:
            first = gateway.solve_many(pairs)
            assert all(r.converged for r in first)
            fp = pairs[0][0].fingerprint()
            descriptor = gateway.registry.descriptor(fp)
            assert descriptor is not None
            assert gateway.evict(fp)
            assert not segment_exists(descriptor.segment)
            # traffic for the evicted fingerprint re-publishes a fresh
            # segment and still converges (the worker rebuilt its solver)
            again = gateway.solve_many(pairs)
            assert all(r.converged for r in again)
            fresh = gateway.registry.descriptor(fp)
            assert fresh is not None and fresh.segment != descriptor.segment
            assert segment_exists(fresh.segment)


@pytest.mark.parametrize("make", [
    pytest.param(lambda config: BatchDispatcher(config, max_batch=1,
                                                max_workers=1),
                 id="dispatcher"),
    pytest.param(lambda config: ShardedGateway(config, procs=1, max_batch=1,
                                               max_workers=1),
                 id="gateway-in-process"),
])
def test_solve_after_evict_is_a_cache_miss(make):
    """``evict`` drops the cached setup: the next solve rebuilds it."""
    operator, rhs = _mixed_traffic(1)[0]
    with make(repro.F3RConfig()) as door:
        door.solve_many([(operator, rhs)])
        assert door.evict(operator.fingerprint())
        assert not door.evict(operator.fingerprint())     # nothing left
        door.solve_many([(operator, rhs)])
        summary = door.stats.summary()
    assert (summary["cache_hits"], summary["cache_misses"]) == (0, 2)


def test_stale_setup_is_reshipped_by_the_process_member():
    """A worker that lost a fingerprint's setup replies ``stale``; its
    process member forgets the fingerprint and reships the setup, so the
    request completes without a retry."""
    operator, rhs = _mixed_traffic(1)[0]
    fp = operator.fingerprint()
    with ShardedGateway(repro.F3RConfig(), procs=2, max_batch=1,
                        max_workers=1) as gateway:
        (first,) = gateway.solve_many([(operator, rhs)])
        # the worker drops the setup while the pool still thinks it has it
        gateway.pool._slots[route_fingerprint(fp, 2)].req_q.put(("evict", fp))
        (again,) = gateway.solve_many([(operator, rhs)])
        summary = gateway.stats.summary()
    assert summary["recovery"]["retries"] == 0
    assert summary["procs"]["workers"]["shm_attaches"] == 2
    assert np.array_equal(first.x, again.x)       # a fresh solver both times


def test_process_tier_enforces_cache_size():
    """A worker keeps at most ``cache_size`` setups: an LRU eviction
    releases the solver, its plans and its shm mapping, and a returning
    fingerprint comes back through the ``stale`` reship — with results
    bit-identical to an in-process dispatcher of the same ``cache_size``."""
    from repro.matgen import poisson2d

    ops = [op for op in map(poisson2d, range(5, 40))
           if route_fingerprint(op.fingerprint(), 2) == 0][:3]
    rng = np.random.default_rng(3)
    pairs = [(op, rng.uniform(-1, 1, op.nrows)) for _ in range(3) for op in ops]
    config = repro.F3RConfig()
    with BatchDispatcher(config, max_batch=1, max_workers=1,
                         cache_size=1) as dispatcher:
        reference = dispatcher.solve_many(pairs)
    with ShardedGateway(config, procs=2, max_batch=1, max_workers=1,
                        cache_size=1) as gateway:
        # one request at a time, so every return meets an evicted setup
        results = [gateway.solve_many([pair])[0] for pair in pairs]
        summary = gateway.stats.summary()
    worker = summary["cluster"]["members"]["0"]["server"]
    # three fingerprints cycling through a one-setup cache: every batch
    # rebuilds, and every return after the first round reships its setup
    assert (worker["cache_hits"], worker["cache_misses"]) == (0, 9)
    assert worker["shm_attaches"] == 9
    assert summary["recovery"]["retries"] == 0
    for ref, got in zip(reference, results):
        assert np.array_equal(ref.x, got.x)


# ---------------------------------------------------------------------- #
# Worker-death injection and recovery
# ---------------------------------------------------------------------- #
class TestWorkerCrashRecovery:
    def test_injected_kill_hits_a_real_process_and_recovers(self):
        from repro.faults import FaultPlan, inject

        pairs = _mixed_traffic(4)
        config = repro.F3RConfig()
        plan = FaultPlan(seed=3, rate=0.0, kill_rate=0.99)
        with inject(plan):
            with ShardedGateway(config, procs=2, max_batch=2, max_workers=1,
                                max_retries=4, retry_backoff=0.01) as gateway:
                results = gateway.solve_many(pairs)
                summary = gateway.stats.summary()
        assert all(r.converged for r in results)
        # at least one worker actually died (a real exit, not an exception)
        # and its batches were re-dispatched
        assert summary["procs"]["worker_deaths"] >= 1
        assert summary["recovery"]["retries"] >= 1

    def test_worker_died_is_raised_when_retries_exhausted(self):
        from repro.faults import FaultPlan, inject

        pairs = _mixed_traffic(2)
        config = repro.F3RConfig()
        # respawned workers do not reinstall the shipped plan, so with
        # max_retries=0 the first kill surfaces as WorkerDied
        plan = FaultPlan(seed=3, rate=0.0, kill_rate=0.99)
        with inject(plan):
            gateway = ShardedGateway(config, procs=2, max_batch=2,
                                     max_workers=1, max_retries=0)
            try:
                futures = [gateway.submit(op, rhs) for op, rhs in pairs]
                gateway.drain()
                outcomes = [f.exception() for f in futures]
                assert any(isinstance(exc, WorkerDied) for exc in outcomes)
            finally:
                gateway.close()


# ---------------------------------------------------------------------- #
# Warm-from-artifacts (workers are fresh spawned interpreters)
# ---------------------------------------------------------------------- #
class TestWorkerArtifactWarm:
    def test_fresh_workers_skip_refactorization(self, artifacts):
        """Gateway run 1 populates REPRO_ARTIFACTS from its workers; run 2's
        *fresh* worker processes load the ILU(0) factors and level schedules
        instead of refactorizing — visible as worker-side artifact hits."""
        pairs = _mixed_traffic(4)
        config = repro.F3RConfig()
        with ShardedGateway(config, procs=2, max_batch=2,
                            max_workers=1) as gateway:
            cold = gateway.solve_many(pairs)
            warm_hits = gateway.stats.summary()["procs"]["workers"][
                "warm_from_artifacts"]
        assert warm_hits.get("ilu0", 0) == 0          # nothing to warm from

        with ShardedGateway(config, procs=2, max_batch=2,
                            max_workers=1) as gateway:
            gateway.prewarm([pairs[0][0]])
            warm = gateway.solve_many(pairs)
            summary = gateway.stats.summary()
        workers = summary["procs"]["workers"]
        assert workers["warm_from_artifacts"].get("ilu0", 0) >= 1
        assert workers["artifact_saved_ms"] >= 0.0
        assert summary["cold_start"]["prewarms"] == 1
        for c, w in zip(cold, warm):
            assert np.array_equal(c.x, w.x)


# ---------------------------------------------------------------------- #
# Stats plumbing
# ---------------------------------------------------------------------- #
class TestGatewayStats:
    def test_in_process_mode_has_procs_section(self):
        config = repro.F3RConfig()
        with ShardedGateway(config, procs=1) as gateway:
            summary = gateway.stats.summary()
        assert summary["procs"] == {"procs": 1, "mode": "in-process"}
        # the ring holds one in-process thread member, and no worker
        # process was spawned
        assert gateway.pool is None
        assert [m["kind"] for m in summary["cluster"]["members"].values()] \
            == ["local"]

    def test_pool_mode_reports_queue_depth_and_shm(self):
        pairs = _mixed_traffic(2)
        config = repro.F3RConfig()
        with ShardedGateway(config, procs=2, max_batch=2,
                            max_workers=1) as gateway:
            gateway.solve_many(pairs)
            summary = gateway.stats.summary()
            procs = summary["procs"]
            assert procs["procs"] == 2
            assert set(procs["queue_depth"]) == {0, 1}
            assert procs["shm"]["published"] >= 1
            assert procs["shm"]["bytes"] > 0
            assert procs["occupancy"]["in_flight_batches"] == 0
            # the ring's process members are named by slot, so rendezvous
            # placement is route_fingerprint's: only routed slots served
            routed = {str(route_fingerprint(op.fingerprint(), 2))
                      for op, _ in pairs}
            served = {name for name, member
                      in summary["cluster"]["members"].items()
                      if member["server"].get("requests")}
            assert served == routed
