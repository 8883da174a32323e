"""Worker-watchdog tests: heartbeats, hang classification, respawn semantics.

The PR 9 watchdog closes the gap PR 8's death detection left open: a worker
that is *alive but silent* (wedged in a C-level stall) never trips
``process.is_alive()``, so its batches would hang forever.  These tests pin
the contract:

* workers heartbeat through the response queue — piggybacked on every
  reply, plus idle ticks every ``heartbeat_interval`` — so the collector
  always has a freshness signal;
* a **slow** worker (injected latency, heartbeat still ticking) must NOT
  trip the watchdog, even when its solve takes longer than ``hang_timeout``;
* a **hung** worker (injected ``hang_rate`` — wedges the process AND
  suppresses its heartbeat) is SIGKILLed and its in-flight batches fail
  with :class:`WorkerHung`, a :class:`WorkerDied` subtype so every existing
  respawn/retry path applies unchanged;
* respawned workers come up clean (no reinstalled fault plan) and serve
  traffic, and the gateway's retry path completes hung requests end to end
  without tripping the setup circuit breaker.

Workers are genuine spawned subprocesses; timeouts are kept tight
(``hang_timeout`` ≈ 0.3–0.5 s, heartbeats ≈ 0.05–0.1 s) so the suite stays
in tier 1.
"""

import pickle
import time

import numpy as np
import pytest

from repro import F3RConfig, faults
from repro.faults import FaultPlan
from repro.matgen import poisson2d
from repro.par.procpool import (
    ExpiredRequest,
    ProcPool,
    WorkerDied,
    WorkerHung,
    WorkerInit,
)
from repro.serve import ShardedGateway, route_fingerprint

pytestmark = pytest.mark.tier1


@pytest.fixture(autouse=True)
def _pin_determinism(monkeypatch):
    """Spawned workers read the environment: disable measured autotune and
    make sure no ambient fault plan / artifact store leaks in."""
    monkeypatch.setenv("REPRO_TUNE", "0")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
    yield


def _config() -> F3RConfig:
    return F3RConfig(variant="fp32", m1=10, adaptive_weight=False)


def _pool(plan: FaultPlan | None = None, *, hang_timeout=0.4,
          heartbeat_interval=0.05, nprocs=1) -> ProcPool:
    init = WorkerInit(config=_config(),
                      fault_spec=plan.spec() if plan is not None else None)
    return ProcPool(nprocs, init, hang_timeout=hang_timeout,
                    heartbeat_interval=heartbeat_interval)


def _submit(pool: ProcPool, matrix, rhs, wid: int = 0, **kwargs):
    block = np.ascontiguousarray(rhs.reshape(-1, 1))
    return pool.submit_batch(wid, matrix.fingerprint(), block,
                             lambda: {"pickle": pickle.dumps(matrix)},
                             **kwargs)


def _wait_heard(pool: ProcPool, wid: int, timeout: float = 30.0) -> None:
    """Block until worker ``wid``'s first heartbeat arrives (start-up done)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pool._slots[wid].heard:
            return
        time.sleep(0.02)
    raise AssertionError(f"worker {wid} produced no heartbeat in {timeout}s")


class TestTyping:
    """Exception taxonomy: no spawns, pure contracts."""

    def test_hung_is_a_death(self):
        assert issubclass(WorkerHung, WorkerDied)
        exc = WorkerHung(3, 1.25)
        assert isinstance(exc, WorkerDied)
        assert exc.worker_id == 3
        assert exc.exitcode is None
        assert exc.silent_s == 1.25
        assert "hung" in str(exc) and "1.25" in str(exc)

    def test_expired_request_marker(self):
        marker = ExpiredRequest(overshoot_s=0.5)
        assert marker.overshoot_s == 0.5
        with pytest.raises(Exception):   # frozen dataclass
            marker.overshoot_s = 1.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="nprocs"):
            ProcPool(0, WorkerInit(config=_config()))
        with pytest.raises(ValueError, match="hang_timeout"):
            ProcPool(1, WorkerInit(config=_config()), hang_timeout=0.0)
        with pytest.raises(ValueError, match="hang_timeout"):
            ProcPool(1, WorkerInit(config=_config()), hang_timeout=-1.0)


class TestHeartbeat:
    def test_idle_ticks_advance_last_beat(self):
        """An idle worker still heartbeats, so silence means wedged — not
        merely unemployed."""
        pool = _pool(hang_timeout=5.0, heartbeat_interval=0.05)
        try:
            slot = pool._slots[0]
            # wait out worker start-up, then sample across two+ intervals
            deadline = time.monotonic() + 10.0
            first = None
            while time.monotonic() < deadline:
                beat = slot.last_beat
                if first is None:
                    first = beat
                elif beat > first:
                    break
                time.sleep(0.05)
            assert slot.last_beat > first
            assert pool.hangs == 0
        finally:
            pool.close()

    def test_default_interval_tracks_timeout(self):
        pool = _pool(hang_timeout=0.4, heartbeat_interval=None)
        try:
            assert pool.heartbeat_interval == pytest.approx(0.1)
        finally:
            pool.close()


class TestHangClassification:
    def test_slow_worker_does_not_trip_watchdog(self):
        """Injected latency models a merely *slow* worker: its solve takes
        longer than ``hang_timeout``, but the heartbeat keeps ticking, so
        the watchdog must leave it alone."""
        plan = FaultPlan(seed=1, rate=0.0, latency=0.8, latency_rate=1.0)
        pool = _pool(plan, hang_timeout=0.3, heartbeat_interval=0.05)
        try:
            matrix = poisson2d(8)
            rhs = np.linspace(-1.0, 1.0, matrix.nrows)
            results, _ = _submit(pool, matrix, rhs).result(timeout=30)
            assert results[0].converged
            assert pool.hangs == 0
            assert pool._slots[0].hangs == 0
        finally:
            pool.close()

    def test_hung_worker_is_killed_and_typed(self):
        """A wedged worker (heartbeat suppressed) is classified, SIGKILLed,
        and its batch fails with ``WorkerHung``; the respawned slot serves
        traffic with no fault plan reinstalled."""
        plan = FaultPlan(seed=1, rate=0.0, hang_rate=1.0, hang_ms=5000.0)
        pool = _pool(plan, hang_timeout=0.4, heartbeat_interval=0.1)
        try:
            matrix = poisson2d(8)
            rhs = np.linspace(-1.0, 1.0, matrix.nrows)
            # wait out worker start-up: the tight hang_timeout arms on the
            # first heartbeat, so wedge a *warmed-up* worker (a pre-beat
            # wedge is the startup-grace path, too slow for tier 1)
            _wait_heard(pool, 0)
            future = _submit(pool, matrix, rhs)
            with pytest.raises(WorkerHung) as excinfo:
                future.result(timeout=30)
            assert isinstance(excinfo.value, WorkerDied)
            assert excinfo.value.silent_s > 0.4
            assert pool.hangs == 1
            assert pool._slots[0].hangs == 1
            assert pool._slots[0].outstanding == 0
            # the watchdog reaped the process before failing the future, so
            # the caller's standard recovery path sees an ordinary dead slot
            assert not pool.alive(0)
            pool.ensure_worker(0)
            assert pool.alive(0)
            assert pool.deaths == 1
            # replacement models a repaired host: hang_rate=1.0 would wedge
            # it on the first batch if the plan had been reinstalled
            results, _ = _submit(pool, matrix, rhs).result(timeout=30)
            assert results[0].converged
        finally:
            pool.close()

    def test_watchdog_disabled_by_none(self):
        pool = _pool(hang_timeout=None, heartbeat_interval=0.05)
        try:
            assert pool.hang_timeout is None
            matrix = poisson2d(8)
            rhs = np.linspace(-1.0, 1.0, matrix.nrows)
            results, _ = _submit(pool, matrix, rhs).result(timeout=30)
            assert results[0].converged
        finally:
            pool.close()


class TestGatewayWatchdog:
    def test_gateway_retries_hung_requests_to_completion(self):
        """End to end through the front door: the first-generation worker
        wedges on its first batch, the watchdog kills it, and the gateway's
        existing retry path respawns and completes every request — without
        charging the setup circuit breaker (a hang is a solve-path failure,
        not a setup failure)."""
        plan = FaultPlan(seed=1, rate=0.0, hang_rate=1.0, hang_ms=5000.0)
        matrix = poisson2d(8)
        rng = np.random.default_rng(11)
        with faults.inject(plan):
            gateway = ShardedGateway(
                _config(), procs=2, max_batch=1, max_queue=32,
                max_retries=4, retry_backoff=0.05,
                hang_timeout=0.4, heartbeat_interval=0.1, overload=False)
        with gateway:
            # warm the routed shard first: the warm path injects no hangs,
            # and its reply arms the watchdog's tight timeout (a wedge
            # before the first beat waits out the startup grace instead)
            gateway.prewarm([matrix], wait=True, timeout=60)
            futures = [gateway.submit(matrix, rng.uniform(-1, 1, matrix.nrows))
                       for _ in range(3)]
            results = [f.result(timeout=60) for f in futures]
            assert all(r.converged for r in results)
            summary = gateway.stats.summary()
        assert summary["procs"]["worker_hangs"] >= 1
        assert summary["procs"]["worker_deaths"] >= 1
        assert summary["recovery"]["retries"] >= 1
        assert summary["recovery"]["breaker_trips"] == 0
        # the retries landed on the respawned home slot, not the other one
        served = {name: member["server"].get("requests", 0)
                  for name, member in summary["cluster"]["members"].items()}
        home = str(route_fingerprint(matrix.fingerprint(), 2))
        assert served[home] == 3 and sum(served.values()) == 3
