"""The front-door contract: one scenario suite for every serving door.

:class:`~repro.serve.BatchDispatcher` and
:class:`~repro.serve.ClusterGateway` share one request policy
(:mod:`repro.serve.frontdoor`).  Each scenario here runs against every door
that supports it — the dispatcher and a one-``"local"``-member cluster (no
network, no spawn):

* RHS validation before admission;
* the ``max_queue`` wall and slot release;
* priority shedding and victim choice (doors with a brownout controller);
* deadline expiry before dispatch;
* breaker open → half-open probe → close (and a failed probe re-opening);
* retry then exhaustion;
* ``close`` failing pending requests and timer-pending retries typed;
* ``drain`` waiting out a timer-pending retry;
* ``prewarm`` counting completed warm-ups only, with their elapsed time;
* a setup failure failing its requests at once, never retried;
* ``cache_hits`` / ``cache_misses`` summed over the door's members, and
  ``evict`` turning the next solve into a miss;
* ``max_batch`` / ``max_queue`` validation at construction.

``test_member_contract_across_kinds`` pins the member contract underneath:
one RHS block gives the same slots from a thread and a remote member.

Doors differ only in transport, so each door's :class:`_Harness` says how
to build it and how to make its transport (or its setup) fail.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import numpy as np
import pytest

import repro.serve.executor as executor_mod
from repro import (
    AdmissionRefused,
    BatchDispatcher,
    CircuitOpen,
    ClusterConfig,
    ClusterGateway,
    DeadlineExceeded,
    DispatcherClosed,
    F3RConfig,
    LoadShed,
)
from repro.matgen import poisson2d
from repro.operators import LinearOperator
from repro.serve import RemoteError, RemoteShard, ShardServer
from repro.serve.executor import (
    ExpiredRequest,
    SetupExecutor,
    ThreadMember,
    WorkerError,
)
from repro.solvers import InvalidInput

pytestmark = pytest.mark.tier1

CONFIG = F3RConfig(variant="fp32", m1=5)


def _rhs(matrix, seed: int = 0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, matrix.nrows)


class _ToggleOperator(LinearOperator):
    """Identity operator whose preconditioner setup fails while ``broken``."""

    def __init__(self, n: int = 16, name: str = "toggle") -> None:
        self.shape = (n, n)
        self.broken = True
        self._name = name

    @property
    def dtype(self):
        return np.dtype(np.float64)

    @property
    def nnz_per_row(self) -> float:
        return 1.0

    def apply(self, x, out_precision=None, record=True):
        return np.asarray(x, dtype=np.float64).copy()

    def fingerprint(self) -> str:
        return f"test-{self._name}-operator"

    def astype(self, precision):
        return self

    def diagonal(self) -> np.ndarray:
        if self.broken:
            raise ValueError("synthetic setup failure")
        return np.ones(self.nrows)


def _failing(times: list, exc_factory):
    """A transport stub body: raise (or return) ``exc_factory()`` while
    ``times[0] > 0``, counting down; ``None`` once it is spent."""
    if times[0] > 0:
        times[0] -= 1
        return exc_factory()
    return None


# ---------------------------------------------------------------------- #
# Per-door harnesses: construction and fault hooks
# ---------------------------------------------------------------------- #
class _Harness:
    name = ""
    controlled = False            # has a brownout controller (priorities)

    def make(self, **policy):
        raise NotImplementedError

    def break_transport(self, door, monkeypatch, times: int) -> None:
        """The next ``times`` batches die in transport (retryable)."""
        raise NotImplementedError

    def break_setup(self, door, monkeypatch, operator: _ToggleOperator):
        """Setup for ``operator`` fails while ``operator.broken``."""
        raise NotImplementedError


class _DispatcherHarness(_Harness):
    name = "dispatcher"
    controlled = True

    def make(self, **policy):
        return BatchDispatcher(CONFIG, max_workers=1, **policy)

    def break_transport(self, door, monkeypatch, times):
        left = [times]

        def maybe_fail_worker(site="dispatcher.worker"):
            exc = _failing(left, lambda: RuntimeError("synthetic worker death"))
            if exc is not None:
                raise exc

        monkeypatch.setattr(executor_mod, "maybe_fail_worker",
                            maybe_fail_worker)

    def break_setup(self, door, monkeypatch, operator):
        pass                      # the real setup build fails


class _ClusterHarness(_Harness):
    name = "cluster"

    def make(self, overload=None, **policy):
        assert overload in (None, False)       # the cluster has no controller
        return ClusterGateway(
            CONFIG, cluster=ClusterConfig(members=(("solo", "local"),),
                                          **policy),
            max_workers=1)

    def break_transport(self, door, monkeypatch, times):
        member = door._members["solo"]
        real = member.submit_batch
        left = [times]

        def submit_batch(*args, **kwargs):
            exc = _failing(left, lambda: ConnectionError("synthetic link loss"))
            if exc is not None:
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(member, "submit_batch", submit_batch)

    def break_setup(self, door, monkeypatch, operator):
        member = door._members["solo"]
        real = member.submit_batch

        def submit_batch(fp, rhs_block, setup_factory, **kwargs):
            if not operator.broken:
                return real(fp, rhs_block, setup_factory, **kwargs)
            slot = RemoteError("setup", "ValueError", "synthetic setup failure")
            future: Future = Future()
            future.set_result(([slot] * rhs_block.shape[1], {}))
            return future

        monkeypatch.setattr(member, "submit_batch", submit_batch)


DOORS = [
    pytest.param(_DispatcherHarness(), id="dispatcher"),
    pytest.param(_ClusterHarness(), id="cluster"),
]
#: doors with a brownout controller
CONTROLLED = [
    pytest.param(_DispatcherHarness(), id="dispatcher"),
]


@pytest.fixture()
def matrix():
    return poisson2d(8)


# ---------------------------------------------------------------------- #
# Construction
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("harness", DOORS)
@pytest.mark.parametrize("policy", [{"max_batch": 0}, {"max_queue": 0}],
                         ids=["max_batch", "max_queue"])
def test_invalid_policy_rejected(harness, policy):
    with pytest.raises(ValueError, match=next(iter(policy))):
        harness.make(**policy)


# ---------------------------------------------------------------------- #
# Admission
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("harness", DOORS)
class TestAdmission:
    def test_rhs_validated_before_admission(self, harness, matrix):
        with harness.make() as door:
            with pytest.raises(InvalidInput) as excinfo:
                door.submit(matrix, np.ones(3))
            assert excinfo.value.site == f"{door._door}.submit"
            bad = _rhs(matrix)
            bad[7] = np.nan
            with pytest.raises(InvalidInput):
                door.submit(matrix, bad)
            assert door.stats.requests == 0      # rejected before admission

    def test_max_queue_wall_and_slot_release(self, harness, matrix):
        with harness.make(max_batch=64, max_queue=2, overload=False) as door:
            door.submit(matrix, _rhs(matrix, 0))
            door.submit(matrix, _rhs(matrix, 1))
            with pytest.raises(AdmissionRefused) as info:
                door.submit(matrix, _rhs(matrix, 2))
            assert not isinstance(info.value, LoadShed)
            assert door.stats.summary()["recovery"]["rejected"] == 1
            door.drain()
            # completed requests release their admission slots
            assert door.submit(matrix, _rhs(matrix, 3)) is not None


@pytest.mark.parametrize("harness", CONTROLLED)
class TestPriorityShedding:
    def test_arrival_displaces_lowest_priority_victim(self, harness, matrix):
        with harness.make(max_batch=100, max_queue=2) as door:
            low = door.submit(matrix, _rhs(matrix, 0), priority=0)
            mid = door.submit(matrix, _rhs(matrix, 1), priority=1)
            high = door.submit(matrix, _rhs(matrix, 2), priority=2)
            exc = low.exception(timeout=5)
            assert isinstance(exc, LoadShed)
            assert exc.priority == 0
            door.drain()
            assert mid.result().converged and high.result().converged
            summary = door.stats.summary()
            assert summary["overload"]["shed"] == 1
            assert summary["overload"]["shed_by_priority"] == {"0": 1}

    def test_victim_tie_break_prefers_earliest_deadline_then_oldest(
            self, harness, matrix):
        with harness.make(max_batch=100, max_queue=3) as door:
            no_deadline = door.submit(matrix, _rhs(matrix, 0), priority=0)
            late = door.submit(matrix, _rhs(matrix, 1), priority=0,
                               deadline=60.0)
            soon = door.submit(matrix, _rhs(matrix, 2), priority=0,
                               deadline=5.0)
            door.submit(matrix, _rhs(matrix, 3), priority=1)
            # the earliest-deadline priority-0 request is the victim
            assert isinstance(soon.exception(timeout=5), LoadShed)
            assert not late.done()
            assert not no_deadline.done()
            door.drain()


# ---------------------------------------------------------------------- #
# Deadlines, breaker, retry
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("harness", DOORS)
class TestFailurePolicy:
    def test_deadline_expires_before_dispatch(self, harness, matrix):
        with harness.make(max_batch=64) as door:
            expired = door.submit(matrix, _rhs(matrix, 0), deadline=0.0)
            generous = door.submit(matrix, _rhs(matrix, 1), deadline=60.0)
            time.sleep(0.01)
            door.drain()
            with pytest.raises(DeadlineExceeded):
                expired.result(timeout=10)
            assert generous.result(timeout=10).converged
            assert door.stats.summary()["recovery"]["deadline_misses"] == 1

    def test_breaker_open_half_open_close(self, harness, monkeypatch):
        operator = _ToggleOperator()
        cooldown = 0.3
        with harness.make(max_batch=1, max_retries=0, breaker_threshold=2,
                          breaker_cooldown=cooldown) as door:
            harness.break_setup(door, monkeypatch, operator)

            def outcome():
                future = door.submit(operator, np.ones(operator.nrows))
                door.drain()
                return future.exception(timeout=30)

            # two setup failures open the breaker; then it fails fast
            first, second = outcome(), outcome()
            assert first is not None and not isinstance(first, CircuitOpen)
            assert second is not None and not isinstance(second, CircuitOpen)
            assert door.stats.breaker_trips == 1
            assert isinstance(outcome(), CircuitOpen)
            # half-open after the cooldown: a failing probe re-opens it
            time.sleep(cooldown * 1.2)
            probe = outcome()
            assert probe is not None and not isinstance(probe, CircuitOpen)
            assert door.stats.breaker_trips == 2
            assert isinstance(outcome(), CircuitOpen)
            # a successful probe closes it for good
            operator.broken = False
            time.sleep(cooldown * 1.2)
            assert outcome() is None
            assert outcome() is None
            assert door.stats.breaker_trips == 2

    def test_retry_then_exhaustion(self, harness, matrix, monkeypatch):
        with harness.make(max_batch=1, max_retries=2,
                          retry_backoff=0.01) as door:
            harness.break_transport(door, monkeypatch, 2)
            recovered = door.submit(matrix, _rhs(matrix, 0))
            door.drain()
            assert recovered.result(timeout=30).converged
            assert door.stats.summary()["recovery"]["retries"] == 2
            harness.break_transport(door, monkeypatch, 3)
            exhausted = door.submit(matrix, _rhs(matrix, 1))
            door.drain()
            exc = exhausted.exception(timeout=30)
            assert exc is not None and "synthetic" in str(exc)
            assert door.stats.summary()["recovery"]["retries"] == 4

    def test_drain_waits_out_timer_pending_retry(self, harness, matrix,
                                                 monkeypatch):
        backoff = 0.3
        with harness.make(max_batch=1, max_retries=1,
                          retry_backoff=backoff) as door:
            harness.break_transport(door, monkeypatch, 1)
            start = time.monotonic()
            future = door.submit(matrix, _rhs(matrix))
            door.drain()
            assert future.done()
            assert time.monotonic() - start >= backoff
            assert future.result().converged
            assert door.stats.retries == 1


# ---------------------------------------------------------------------- #
# Warm-ups
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("harness", DOORS)
def test_prewarm_counts_completed_warmups_only(harness):
    operator = _ToggleOperator(name="warm")
    with harness.make(breaker_threshold=1) as door:
        with pytest.raises(Exception, match="synthetic setup failure"):
            door.prewarm([operator], timeout=60)
        assert door.stats.summary()["cold_start"]["prewarms"] == 0
        assert door.stats.breaker_trips == 0    # a warm-up is not traffic
        operator.broken = False
        door.prewarm([operator], timeout=60)
        cold_start = door.stats.summary()["cold_start"]
    assert cold_start["prewarms"] == 1
    assert cold_start["prewarm_ms"] > 0


@pytest.mark.parametrize("harness", DOORS)
def test_cache_counters_sum_over_members(harness, matrix):
    """The door's ``cache_hits`` / ``cache_misses`` are its members'
    executor counts: one build, then hits, whatever the transport."""
    with harness.make(max_batch=1) as door:
        for i in range(3):
            door.solve_many([(matrix, _rhs(matrix, i))])
        summary = door.stats.summary()
    assert (summary["cache_hits"], summary["cache_misses"]) == (2, 1)
    assert (door.stats.cache_hits, door.stats.cache_misses) == (2, 1)


@pytest.mark.parametrize("harness", DOORS)
def test_solve_after_evict_is_a_cache_miss(harness, matrix):
    """``evict`` drops the cached setup: the next solve rebuilds it."""
    rhs = _rhs(matrix)
    with harness.make(max_batch=1) as door:
        door.solve_many([(matrix, rhs)])
        assert door.evict(matrix.fingerprint())
        assert not door.evict(matrix.fingerprint())     # nothing left
        door.solve_many([(matrix, rhs)])
        summary = door.stats.summary()
    assert (summary["cache_hits"], summary["cache_misses"]) == (0, 2)


@pytest.mark.parametrize("harness", DOORS)
def test_summary_snapshots_each_member_once(harness, matrix, monkeypatch):
    """One ``summary()`` reads each member's ``stats()`` once; the cache
    counters and the ``cluster`` member table come from that one read."""
    with harness.make(max_batch=1) as door:
        door.solve_many([(matrix, _rhs(matrix))])
        calls = dict.fromkeys(door._members, 0)
        for name, member in door._members.items():
            def counted(real=member.stats, name=name):
                calls[name] += 1
                return real()

            monkeypatch.setattr(member, "stats", counted)
        summary = door.stats.summary()
    assert calls == dict.fromkeys(door._members, 1)
    assert sorted(summary["cluster"]["members"]) == sorted(door._members)
    assert (summary["cache_hits"], summary["cache_misses"]) == (0, 1)


# ---------------------------------------------------------------------- #
# Shutdown
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("harness", DOORS)
class TestClose:
    def test_close_fails_pending_typed(self, harness, matrix):
        door = harness.make(max_batch=64)
        future = door.submit(matrix, _rhs(matrix))
        door.close(wait=False)
        with pytest.raises(DispatcherClosed):
            future.result(timeout=10)
        with pytest.raises(DispatcherClosed, match="closed"):
            door.submit(matrix, _rhs(matrix))

    def test_close_fails_timer_pending_retry_typed(self, harness, matrix,
                                                   monkeypatch):
        door = harness.make(max_batch=1, max_retries=1, retry_backoff=30.0)
        try:
            harness.break_transport(door, monkeypatch, 1)
            future = door.submit(matrix, _rhs(matrix))
            deadline = time.monotonic() + 30.0
            while door.stats.retries == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert door.stats.retries == 1
        finally:
            door.close()
        with pytest.raises(DispatcherClosed):
            future.result(timeout=10)


# ---------------------------------------------------------------------- #
# Transport-specific regressions
# ---------------------------------------------------------------------- #
def test_dispatcher_retry_backoff_does_not_stall_other_fingerprints(
        monkeypatch):
    """A died batch's backoff runs on a timer: with one worker, a healthy
    fingerprint queued behind a failing one completes without waiting the
    backoff out (the worker used to sleep through it)."""
    backoff = 1.0
    healthy, flaky = poisson2d(8), poisson2d(9)
    with BatchDispatcher(CONFIG, max_batch=1, max_workers=1, max_retries=1,
                         retry_backoff=backoff) as dispatcher:
        dispatcher.prewarm([healthy, flaky])
        _DispatcherHarness().break_transport(dispatcher, monkeypatch, 1)
        bad = dispatcher.submit(flaky, _rhs(flaky))
        start = time.monotonic()
        good = dispatcher.submit(healthy, _rhs(healthy))
        assert good.result(timeout=30).converged
        elapsed = time.monotonic() - start
        dispatcher.drain()
    assert elapsed < backoff / 2
    assert bad.result().converged             # its retry ran after the backoff
    assert dispatcher.stats.retries == 1


@pytest.mark.parametrize("harness", DOORS)
def test_setup_failure_is_final_not_retried(harness, monkeypatch):
    """A setup that fails to build fails its requests with a ``"setup"``
    error at once: retrying cannot fix it, and the breaker counts it."""
    operator = _ToggleOperator(name="final")
    with harness.make(max_batch=1, max_retries=3) as door:
        harness.break_setup(door, monkeypatch, operator)
        future = door.submit(operator, np.ones(operator.nrows))
        door.drain()
        exc = future.exception(timeout=30)
        summary = door.stats.summary()
    assert isinstance(exc, WorkerError) and exc.kind == "setup"
    assert "synthetic setup failure" in str(exc)
    assert summary["recovery"]["retries"] == 0


def test_member_contract_across_kinds(matrix):
    """One RHS block — an already-expired column, a degrade-flagged column
    and a plain one — gives the same slots from every member kind: a
    thread member and an in-process ``ShardServer`` behind a
    ``RemoteShard``.  The solves are bit-identical and the
    ``ExpiredRequest`` sits at the same index."""
    config = F3RConfig(variant="fp64", m1=5)
    fp = matrix.fingerprint()
    block = np.stack([_rhs(matrix, i) for i in range(3)], axis=1)

    def run(member):
        future = member.submit_batch(
            fp, block, lambda: matrix, deadlines=[time.time() - 1.0, None, None],
            degrade=[False, True, False])
        return future.result(timeout=60)[0]

    kinds = {}
    thread = ThreadMember("thread", SetupExecutor(config), max_workers=1)
    try:
        kinds["thread"] = run(thread)
    finally:
        thread.close()
    with ShardServer(config=config, max_workers=1) as server, \
            RemoteShard(server.address, name="server") as shard:
        kinds["server"] = run(shard)
    for name, slots in kinds.items():
        assert isinstance(slots[0], ExpiredRequest), name
        assert [s.solver_name for s in slots[1:]] == ["fp32-F3R", "fp64-F3R"]
        for got, want in zip(slots[1:], kinds["thread"][1:]):
            assert got.x.tobytes() == want.x.tobytes(), name
            assert got.iterations == want.iterations, name


def test_expired_request_marker():
    marker = ExpiredRequest(overshoot_s=0.5)
    assert marker.overshoot_s == 0.5
    with pytest.raises(Exception):   # frozen dataclass
        marker.overshoot_s = 1.0
