"""Overload resilience: priority admission, brownout hysteresis, metrics.

Pins the PR 9 overload layer:

* **Priority admission / load shedding** — ``submit(..., priority=)`` on the
  dispatcher and the gateway; a full ``max_queue`` sheds the
  lowest-priority-oldest-deadline pending request (typed :class:`LoadShed`)
  instead of refusing everything at the wall; ``priority_depths`` bounds and
  per-priority shed counters; ``overload=False`` restores the pre-priority
  hard :class:`AdmissionRefused` wall exactly.  Victim choice is pinned for
  every door with a controller in ``test_frontdoor.py``.
* **Brownout hysteresis** — the NORMAL→BROWNOUT→SHED machine's dwell and
  threshold-gap discipline, including the hypothesis property that a
  constant pressure signal can never oscillate the state.
* **Degradation** — under brownout, ``degradable=True`` requests start one
  precision tier lower on a recovery-laddered sibling; opportunistic
  warm-ups pause while degraded.
* **Metrics export** — :func:`repro.serve.render_metrics` renders
  ``stats.summary()`` as Prometheus text.
* **Shutdown races** — ``close(wait=False)`` racing ``prewarm(wait=False)``
  fails the warm futures typed (:class:`DispatcherClosed`) on the
  dispatcher and on a ring of ``ShardServer`` members instead of leaking
  cancelled/forever-pending futures.
* **The tier-2 overload hammer** — a priority-mixed, deadline-mixed
  100-request burst against a two-worker dispatcher under worker-failure +
  corruption injection: every non-shed request completes bit-identically
  or fails typed, and the overload counters are live.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    AdmissionRefused,
    BatchDispatcher,
    ClusterConfig,
    ClusterGateway,
    DeadlineExceeded,
    DispatcherClosed,
    F3RConfig,
    LoadShed,
    RemoteShard,
    ShardServer,
    render_metrics,
)
from repro.matgen import poisson2d
from repro.plans import plan_cache_stats
from repro.serve.overload import (
    BrownoutConfig,
    BrownoutController,
    overload_enabled,
    resolve_controller,
)

pytestmark = pytest.mark.tier1


def _matrix(n: int = 8):
    return poisson2d(n)


def _rhs(matrix, seed: int = 0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, matrix.nrows)


def _hot_controller(level: str = "brownout") -> BrownoutController:
    """A controller driven into the requested state with real observations.

    ``recover_dwell`` is set high so the handful of low-pressure
    observations a short test emits cannot recover the state mid-test.
    """
    controller = BrownoutController(BrownoutConfig(dwell=1, recover_dwell=500))
    controller.observe(queue_fill=0.9)
    if level == "shed":
        controller.observe(queue_fill=1.0)
        assert controller.state == "shed"
    else:
        assert controller.state == "brownout"
    return controller


# ---------------------------------------------------------------------- #
# The hysteresis machine
# ---------------------------------------------------------------------- #
class TestBrownoutController:
    def test_config_validates_threshold_ordering(self):
        with pytest.raises(ValueError):
            BrownoutConfig(enter_brownout=0.4, exit_brownout=0.5)
        with pytest.raises(ValueError):
            BrownoutConfig(enter_shed=0.5, exit_shed=0.6)
        with pytest.raises(ValueError):
            BrownoutConfig(enter_brownout=0.95, enter_shed=0.9)
        with pytest.raises(ValueError):
            BrownoutConfig(dwell=0)

    def test_climb_requires_dwell(self):
        controller = BrownoutController(BrownoutConfig(dwell=3))
        for _ in range(2):
            controller.observe(queue_fill=0.9)
            assert controller.state == "normal"
        controller.observe(queue_fill=0.9)
        assert controller.state == "brownout"
        assert controller.transition_count == 1

    def test_recovery_requires_longer_dwell(self):
        cfg = BrownoutConfig(dwell=1, recover_dwell=4)
        controller = BrownoutController(cfg)
        controller.observe(queue_fill=0.9)
        assert controller.state == "brownout"
        for _ in range(3):
            controller.observe(queue_fill=0.1)
            assert controller.state == "brownout"
        controller.observe(queue_fill=0.1)
        assert controller.state == "normal"
        assert controller.entries == {"normal": 1, "brownout": 1, "shed": 0}

    def test_mid_band_pressure_holds_state(self):
        # between exit and entry thresholds, neither dwell counter advances
        controller = BrownoutController(BrownoutConfig(dwell=1, recover_dwell=1))
        controller.observe(queue_fill=0.9)
        assert controller.state == "brownout"
        for _ in range(50):
            controller.observe(queue_fill=0.6)   # in (exit=0.45, enter=0.75)
        assert controller.state == "brownout"
        assert controller.transition_count == 1

    def test_miss_rate_and_trips_raise_pressure(self):
        controller = BrownoutController(BrownoutConfig(dwell=1))
        # 2 misses over 4 requests = 0.5 windowed miss rate >> miss_high
        controller.observe(deadline_misses=2, requests=4)
        assert controller.state == "brownout"
        other = BrownoutController(BrownoutConfig(dwell=1))
        other.observe(breaker_trips=5, requests=10)
        assert other.state == "brownout"

    def test_occupancy_alone_cannot_enter_brownout(self):
        controller = BrownoutController(BrownoutConfig(dwell=1))
        for _ in range(20):
            controller.observe(occupancy=1.0)
        assert controller.state == "normal"   # weighted 0.5 < enter 0.75

    def test_shed_floor_policy(self):
        controller = _hot_controller("shed")
        assert not controller.admits(0)
        assert controller.admits(1)
        assert controller.admits(5)
        brown = _hot_controller("brownout")
        assert brown.admits(0)                # floor applies only in SHED

    def test_summary_counts_beyond_kept_transitions(self):
        controller = BrownoutController(BrownoutConfig(dwell=1, recover_dwell=1))
        for _ in range(20):
            controller.observe(queue_fill=1.0)
            controller.observe(queue_fill=1.0)   # normal -> brownout -> shed
            controller.observe(queue_fill=0.0)
            controller.observe(queue_fill=0.0)   # shed -> brownout -> normal
        summary = controller.summary()
        assert summary["transitions"] == 80
        assert len(summary["last_transitions"]) <= 16
        assert summary["entries"]["shed"] == 20

    def test_resolve_controller_forms(self, monkeypatch):
        assert resolve_controller(False) is None
        assert isinstance(resolve_controller(True), BrownoutController)
        cfg = BrownoutConfig(dwell=5)
        assert resolve_controller(cfg).config is cfg
        mine = BrownoutController()
        assert resolve_controller(mine) is mine
        monkeypatch.setenv("REPRO_OVERLOAD", "0")
        assert not overload_enabled()
        assert resolve_controller(None) is None
        monkeypatch.setenv("REPRO_OVERLOAD", "1")
        assert isinstance(resolve_controller(None), BrownoutController)


class TestHysteresisProperty:
    @pytest.mark.tier2
    @settings(max_examples=60, deadline=None)
    @given(
        pressure=st.floats(min_value=0.0, max_value=1.0),
        enter_brownout=st.floats(min_value=0.3, max_value=0.8),
        gap=st.floats(min_value=0.01, max_value=0.25),
        dwell=st.integers(min_value=1, max_value=5),
        recover_dwell=st.integers(min_value=1, max_value=8),
        steps=st.integers(min_value=1, max_value=120),
    )
    def test_constant_signal_never_oscillates(self, pressure, enter_brownout,
                                              gap, dwell, recover_dwell, steps):
        """On a constant signal the machine transitions monotonically upward
        (at most twice) and then holds its fixed point forever."""
        enter_shed = min(1.0, enter_brownout + gap)
        config = BrownoutConfig(
            enter_brownout=enter_brownout,
            exit_brownout=max(0.0, enter_brownout - gap),
            enter_shed=enter_shed,
            exit_shed=max(0.0, min(enter_shed - gap / 2,
                                   enter_shed - 1e-6)),
            dwell=dwell, recover_dwell=recover_dwell)
        controller = BrownoutController(config)
        # any number of steps plus enough extra to let the climb finish:
        # the machine needs at most 2*dwell observations to reach its level
        for _ in range(steps + 2 * dwell + 2):
            controller.observe(queue_fill=pressure)
        transitions = list(controller.transitions)
        assert len(transitions) <= 2
        order = {"normal": 0, "brownout": 1, "shed": 2}
        for t in transitions:
            assert order[t.to_state] == order[t.from_state] + 1
        # the fixed point holds: more of the same signal, no new transitions
        settled = controller.transition_count
        for _ in range(50 + recover_dwell):
            controller.observe(queue_fill=pressure)
        assert controller.transition_count == settled
        assert list(controller.transitions) == transitions


# ---------------------------------------------------------------------- #
# Priority admission and load shedding (dispatcher); victim choice is
# pinned for every door with a controller in test_frontdoor.py
# ---------------------------------------------------------------------- #
class TestPriorityAdmission:
    def _dispatcher(self, **kw):
        kw.setdefault("max_batch", 100)   # nothing dispatches until flush
        return BatchDispatcher(F3RConfig(variant="fp32", m1=5), **kw)

    def test_incoming_request_sheds_itself_when_lowest(self):
        A = _matrix()
        with self._dispatcher(max_queue=1) as d:
            d.submit(A, _rhs(A, 0), priority=2)
            with pytest.raises(LoadShed) as info:
                d.submit(A, _rhs(A, 1), priority=1)
            assert info.value.priority == 1
            assert isinstance(info.value, AdmissionRefused)   # subtype contract
            summary = d.stats.summary()
            assert summary["recovery"]["rejected"] == 1       # legacy counter
            assert summary["overload"]["shed"] == 1
            d.flush()
            d.drain()

    def test_priority_depths_bound(self):
        A = _matrix()
        with self._dispatcher(priority_depths={0: 2}) as d:
            d.submit(A, _rhs(A, 0), priority=0)
            d.submit(A, _rhs(A, 1), priority=0)
            with pytest.raises(LoadShed):
                d.submit(A, _rhs(A, 2), priority=0)
            # other priorities are not bounded by priority 0's depth
            d.submit(A, _rhs(A, 3), priority=1)
            d.flush()
            d.drain()

    def test_shed_floor_refuses_at_admission(self):
        A = _matrix()
        with self._dispatcher(overload=_hot_controller("shed")) as d:
            with pytest.raises(LoadShed):
                d.submit(A, _rhs(A, 0), priority=0)
            ok = d.submit(A, _rhs(A, 1), priority=1)
            d.flush()
            d.drain()
            assert ok.result().converged

    def test_overload_false_restores_hard_wall(self):
        A = _matrix()
        with self._dispatcher(max_queue=1, overload=False) as d:
            d.submit(A, _rhs(A, 0), priority=0)
            with pytest.raises(AdmissionRefused) as info:
                d.submit(A, _rhs(A, 1), priority=9)
            assert not isinstance(info.value, LoadShed)
            assert d.stats.summary()["overload"]["state"] == "disabled"
            d.flush()
            d.drain()

    def test_controller_on_by_default(self):
        with self._dispatcher() as d:
            assert d._overload is not None
            assert d.stats.summary()["overload"]["state"] == "normal"

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_OVERLOAD", "0")
        with BatchDispatcher(F3RConfig(variant="fp32", m1=5)) as d:
            assert d._overload is None
            assert d.stats.summary()["overload"]["state"] == "disabled"


# ---------------------------------------------------------------------- #
# Brownout degradation and background suppression
# ---------------------------------------------------------------------- #
class _ServedDoor(ClusterGateway):
    """A ring of one in-process :class:`ShardServer` member whose door
    carries a brownout controller, built the way ``BatchDispatcher`` builds
    its ring: the degrade flags cross a real transport."""

    _door = "served"

    def __init__(self, config, overload) -> None:
        self._server = ShardServer(config=config, max_workers=1).start()
        self._init_ring(config, ClusterConfig(max_batch=4), None, overload)
        self._members["server"] = RemoteShard(self._server.address,
                                              name="server")

    def _teardown(self) -> None:
        super()._teardown()
        self._server.close()


def _degrading_door(door: str, config, overload):
    """The doors whose brownout controller degrades: the dispatcher, and
    a ring whose member is a ``ShardServer`` behind a socket."""
    if door == "dispatcher":
        return BatchDispatcher(config, max_batch=4, max_workers=1,
                               overload=overload)
    return _ServedDoor(config, overload)


class TestDegradation:
    @pytest.mark.parametrize("door", ["dispatcher", "served"])
    def test_degradable_requests_run_one_tier_lower(self, door):
        A = _matrix()
        config = F3RConfig(variant="fp64", m1=10)
        with _degrading_door(door, config,
                             _hot_controller("brownout")) as d:
            futures = [d.submit(A, _rhs(A, i), degradable=(i % 2 == 0))
                       for i in range(4)]
            d.flush()
            d.drain()
            results = [f.result() for f in futures]
            summary = d.stats.summary()
        assert all(r.converged for r in results)
        for i, result in enumerate(results):
            expected = "fp32-F3R" if i % 2 == 0 else "fp64-F3R"
            assert result.solver_name == expected
        assert summary["overload"]["degraded"] == 2

    @pytest.mark.parametrize("door", ["dispatcher", "served"])
    def test_no_controller_never_degrades(self, door):
        A = _matrix()
        config = F3RConfig(variant="fp64", m1=10)
        with _degrading_door(door, config, False) as d:
            futures = [d.submit(A, _rhs(A, i), degradable=True)
                       for i in range(2)]
            d.drain()
            results = [f.result() for f in futures]
            summary = d.stats.summary()
        assert all(r.solver_name == "fp64-F3R" for r in results)
        assert summary["overload"]["degraded"] == 0

    def test_fp16_floor_cannot_degrade(self):
        A = _matrix()
        config = F3RConfig(variant="fp16", m1=10)
        with BatchDispatcher(config, max_batch=2, max_workers=1,
                             overload=_hot_controller("brownout")) as d:
            futures = [d.submit(A, _rhs(A, i), degradable=True)
                       for i in range(2)]
            d.flush()
            d.drain()
            results = [f.result() for f in futures]
        assert all(r.solver_name == "fp16-F3R" for r in results)
        assert d.stats.summary()["overload"]["degraded"] == 0

    def test_degraded_sibling_keeps_recovery_ladder(self):
        solver = repro.F3RSolver(_matrix(), config=F3RConfig(variant="fp64"))
        sibling = solver.degraded_sibling("fp32")
        assert sibling.config.variant == "fp32"
        assert sibling.recovery_policy is not None
        assert sibling is solver.degraded_sibling("fp32")   # cached

    def test_background_suppression_follows_state(self):
        controller = BrownoutController(BrownoutConfig(dwell=1, recover_dwell=1))
        controller.observe(queue_fill=0.9)
        assert controller.suppress_background()
        controller.observe(queue_fill=0.0)
        assert not controller.suppress_background()


# ---------------------------------------------------------------------- #
# Prometheus metrics export
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_render_real_dispatcher_summary(self):
        A = _matrix()
        with BatchDispatcher(F3RConfig(variant="fp32", m1=5),
                             max_batch=4) as d:
            for i in range(4):
                d.submit(A, _rhs(A, i), priority=i % 2)
            d.flush()
            d.drain()
            text = render_metrics(d.stats.summary())
        lines = text.splitlines()
        assert "# TYPE repro_requests counter" in lines
        assert "repro_requests 4" in lines
        assert "# TYPE repro_largest_batch gauge" in lines
        assert any(line.startswith('repro_overload_state{state="')
                   for line in lines)
        # every sample line parses as <name or name{labels}> <number>
        for line in lines:
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name[0].isalpha()
        assert text.endswith("\n")

    def test_labeled_families_and_counter_classification(self):
        summary = {
            "requests": 7,
            "overload": {
                "state": "brownout",
                "shed": 3,
                "shed_by_priority": {"0": 2, "1": 1},
                "last_transitions": [{"from": "normal"}],   # skipped
            },
            "faults": {"by_site": {"spmv": 2, "trsv": 0}},
            "cluster": {"failovers": 1},
            "cold_start": {"prewarms": 2, "prewarm_ms": 1.5,
                           "artifacts": {"stores": 4, "errors": 1}},
            "plan_cache": plan_cache_stats(),
            "ratio": 0.5,
        }
        text = render_metrics(summary, prefix="x")
        assert "# TYPE x_requests counter" in text
        assert 'x_overload_shed_by_priority{priority="0"} 2' in text
        assert 'x_faults_by_site{site="trsv"} 0' in text
        assert "# TYPE x_cluster_failovers counter" in text
        assert 'x_overload_state{state="brownout"} 1' in text
        assert "# TYPE x_cold_start_prewarms counter" in text
        assert "# TYPE x_cold_start_prewarm_ms gauge" in text
        assert "x_cold_start_prewarm_ms 1.5" in text
        assert "x_ratio 0.5" in text
        assert "last_transitions" not in text
        # cumulative store and plan-cache counts are counters, the plan
        # cache's current size a gauge
        assert "# TYPE x_cold_start_artifacts_stores counter" in text
        assert "# TYPE x_cold_start_artifacts_errors counter" in text
        for leaf in ("compiled", "hits", "misses"):
            assert f"# TYPE x_plan_cache_{leaf} counter" in text
        assert "# TYPE x_plan_cache_cached gauge" in text

    def test_help_text_optional(self):
        text = render_metrics({"requests": 1}, help_text=False)
        assert "# HELP" not in text
        assert "# TYPE repro_requests counter" in text


# ---------------------------------------------------------------------- #
# close(wait=False) racing prewarm(wait=False)
# ---------------------------------------------------------------------- #
class TestPrewarmCloseRace:
    def test_dispatcher_warm_futures_fail_typed(self):
        operators = [poisson2d(6 + i) for i in range(6)]
        d = BatchDispatcher(F3RConfig(variant="fp32", m1=5), max_workers=1)
        futures = d.prewarm(operators, wait=False)
        d.close(wait=False)
        for future in futures:
            exc = future.exception(timeout=10)   # never hangs, never Cancelled
            assert exc is None or isinstance(exc, DispatcherClosed)
        # at least the never-started tail must have been failed typed
        assert any(isinstance(f.exception(), DispatcherClosed)
                   for f in futures) or all(f.exception() is None
                                            for f in futures)

    def test_dispatcher_close_then_prewarm_refused(self):
        d = BatchDispatcher(F3RConfig(variant="fp32", m1=5))
        d.close()
        with pytest.raises(DispatcherClosed):
            d.prewarm([_matrix()], wait=False)

    def test_served_ring_warm_futures_fail_typed(self):
        operators = [poisson2d(6 + i) for i in range(4)]
        config = F3RConfig(variant="fp32", m1=5)
        with ShardServer(config=config, max_workers=1) as s0, \
                ShardServer(config=config, max_workers=1) as s1:
            gateway = ClusterGateway(config, cluster=ClusterConfig(
                members=(("s0", "%s:%d" % s0.address),
                         ("s1", "%s:%d" % s1.address)), max_retries=0))
            futures = gateway.prewarm(operators, wait=False)
            gateway.close(wait=False)
            for future in futures:
                exc = future.exception(timeout=10)
                assert exc is None or isinstance(exc, DispatcherClosed)

    def test_served_ring_close_wait_lets_warmups_finish(self):
        config = F3RConfig(variant="fp32", m1=5)
        with ShardServer(config=config, max_workers=1) as s0, \
                ShardServer(config=config, max_workers=1) as s1:
            gateway = ClusterGateway(config, cluster=ClusterConfig(
                members=(("s0", "%s:%d" % s0.address),
                         ("s1", "%s:%d" % s1.address))))
            futures = gateway.prewarm([poisson2d(6)], wait=False)
            gateway.close(wait=True)
            assert futures[0].exception(timeout=1) is None
            assert gateway.stats.prewarms == 1


# ---------------------------------------------------------------------- #
# The tier-2 overload hammer
# ---------------------------------------------------------------------- #
@pytest.mark.tier2
class TestOverloadHammer:
    def test_hundred_request_burst_under_chaos(self, monkeypatch):
        """Priority-mixed, deadline-mixed burst with worker failures and
        corruption: every non-shed, non-expired request completes
        bit-identically to an unfaulted reference; shed/expired requests
        fail typed; the overload counters are live."""
        from repro import set_recovery_enabled
        from repro.faults import FaultPlan, inject

        # determinism pins: stateless solves (bit-identity under retries)
        # and no recovery ladder, so a corrupted solve fails its batch into
        # the retry path instead of recovering
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        ops = [poisson2d(8), poisson2d(9)]
        config = F3RConfig(variant="fp32", m1=10, adaptive_weight=False)
        pairs = [(ops[i % 2], _rhs(ops[i % 2], i)) for i in range(100)]
        prev_recovery = set_recovery_enabled(False)
        try:
            # unfaulted reference, one request per batch, single worker
            with BatchDispatcher(config, max_batch=1, max_workers=1,
                                 overload=False) as ref:
                reference = [f.result() for f in
                             [ref.submit(op, b) for op, b in pairs]]

            plan = FaultPlan(seed=20, rate=0.004, sites=("spmv",),
                             kinds=("nan",), max_faults=2, worker_rate=0.03)
            shed, expired, completed = [], [], {}
            with inject(plan):
                dispatcher = BatchDispatcher(
                    config, max_batch=1, max_workers=2, max_queue=64,
                    max_retries=10, retry_backoff=0.02)
                try:
                    futures = {}
                    for i, (op, b) in enumerate(pairs):
                        priority = i % 3
                        deadline = (0.002 if priority == 0 and i % 10 == 0
                                    else None)
                        try:
                            futures[i] = dispatcher.submit(
                                op, b, priority=priority, degradable=False,
                                deadline=deadline)
                        except LoadShed:
                            shed.append(i)
                    dispatcher.flush()
                    dispatcher.drain()
                    for i, future in futures.items():
                        exc = future.exception()
                        if exc is None:
                            completed[i] = future.result()
                        elif isinstance(exc, DeadlineExceeded):
                            expired.append(i)
                        elif isinstance(exc, LoadShed):
                            shed.append(i)
                        else:
                            raise AssertionError(
                                f"request {i} failed untyped: {exc!r}")
                    summary = dispatcher.stats.summary()
                finally:
                    dispatcher.close()
        finally:
            set_recovery_enabled(prev_recovery)

        # the chaos actually happened and the overload machinery saw it
        assert summary["recovery"]["retries"] >= 1
        assert summary["overload"]["shed"] >= 1
        assert summary["overload"]["transitions"] >= 1
        assert len(shed) >= 1
        # completion accounting: everything is exactly one of the three
        assert len(completed) + len(expired) + len(shed) == 100
        assert len(completed) >= 50
        # bit-identity against the unfaulted single-worker reference
        for i, result in completed.items():
            assert result.converged
            np.testing.assert_array_equal(result.x, reference[i].x)
