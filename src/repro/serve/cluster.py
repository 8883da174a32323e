"""The member ring: the one transport under every serving front door.

:class:`ClusterGateway` is the :class:`~repro.serve.frontdoor.FrontDoor`
with a transport: a ring of members that all speak one contract —
``submit_batch(fp, rhs_block, setup_factory, deadlines, degrade) ->
Future[(slots, snapshot)]``, ``submit_warm``, ``evict``, ``healthy``,
``rtt_percentile``, ``stats`` and ``close``.  A member is a
:class:`~repro.serve.executor.ThreadMember` (target ``"local"``) or a
:class:`~repro.serve.remote.RemoteShard` (``"host:port"``); several
processes on one host are :class:`~repro.serve.remote.ShardServer`
processes on localhost.  ``BatchDispatcher`` only builds a ring.  What the
ring owns:

* **Routing** — :func:`rank_members` rendezvous-ranks the member names per
  fingerprint; the head is the primary, the tail the hedge/failover order.
* **Launch and result slots** — a batch ships to its primary as one RHS
  block with wall-clock deadlines; every slot that comes back (a
  ``SolveResult``, an ``ExpiredRequest`` or a ``RemoteError``) is final, and
  ``"setup"`` slots charge the core's circuit breaker.
* **Brownout degradation** — under the door's brownout controller, the
  degradable requests of a batch are flagged to solve one precision tier
  lower; members obey the flags.  Without a controller nothing degrades.
* **Hedging** — a deadline-carrying batch arms a timer (``hedge_ms``, or
  ``hedge_factor`` x the primary's ``hedge_percentile`` RTT once
  ``hedge_min_samples`` are in); when it trips first, the batch also ships
  to the next-ranked healthy member and the first response wins (the
  loser counts ``late_results``).
* **Failover** — a transport failure goes to the core's retry; when the
  member is :class:`~repro.serve.remote.ShardUnreachable` the retry skips
  to the next-ranked healthy member (``failovers``).
* **Prewarm, evict, close** — warm-ups run on the primary and count once
  completed (a thread member's returning evicted fingerprint is rebuilt
  opportunistically); evictions reach every member; ``close(wait=True)``
  lets in-flight batches and warm-ups finish before the members close.

``stats.summary()["cluster"]`` carries the member table and the ring
counters.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import Future, wait as wait_futures
from dataclasses import dataclass

import numpy as np

from ..core import F3RConfig, degraded_variant
from ..solvers import SolveResult
from .executor import ExpiredRequest, SetupExecutor, ThreadMember
from .frontdoor import DispatchStats, FrontDoor, _Request, _resolve_once
from .overload import resolve_controller
from .remote import RemoteShard, ShardUnreachable

__all__ = ["ClusterConfig", "ClusterGateway", "ClusterStats", "rank_members"]


def rank_members(fingerprint: str, names) -> list:
    """Rendezvous-rank ``names`` for a fingerprint, best first.

    Highest random weight over ``blake2b(fp | name)``: deterministic across
    processes and runs, minimally disruptive when membership changes (only
    the moved fingerprints re-route), and the ranking *tail* is the natural
    failover/hedge order — when the primary dies, the fingerprint's traffic
    moves to the second-ranked member, exactly where a fresh rendezvous over
    the survivors would place it.  Ties keep input order (stable sort).
    """
    return sorted(
        names,
        key=lambda name: hashlib.blake2b(f"{fingerprint}|{name}".encode(),
                                         digest_size=8).digest(),
        reverse=True)


@dataclass
class ClusterConfig:
    """Membership and policy for a :class:`ClusterGateway`.

    ``members`` is a sequence of ``(name, target)`` pairs: ``target`` is
    ``"host:port"`` for a remote shard or ``"local"`` for an in-process
    dispatcher member.  Names are the rendezvous identities — stable names
    keep fingerprint placement stable across restarts.  The policy fields
    (``max_batch`` through ``breaker_cooldown``) are the front-door core's
    knobs and are validated when the gateway is built.
    """

    members: tuple = ()
    max_batch: int = 8
    max_queue: int | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: fixed hedge delay in milliseconds (None: derive from observed RTT)
    hedge_ms: float | None = None
    hedge_percentile: float = 95.0
    hedge_factor: float = 1.5
    hedge_min_samples: int = 8
    # transport knobs forwarded to every RemoteShard member
    heartbeat_interval: float = 0.5
    miss_limit: int = 3
    max_inflight: int = 128
    resend_timeout: float = 1.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    reconnect_attempts: int = 8
    connect_timeout: float = 5.0

    def __post_init__(self) -> None:
        self.members = tuple((str(name), str(target))
                             for name, target in self.members)
        if len({name for name, _ in self.members}) != len(self.members):
            raise ValueError("cluster member names must be unique")


#: the ring's stats are the front door's: one class, exported under both names
ClusterStats = DispatchStats


class _Flight:
    """One batch's journey through the ring: primary, hedge, failover."""

    __slots__ = ("fp", "operator", "requests", "degrade", "outstanding",
                 "resolved", "hedge_timer")

    def __init__(self, fp: str, operator, requests: list) -> None:
        self.fp = fp
        self.operator = operator
        self.requests = requests
        self.degrade = None
        self.outstanding: dict[str, Future] = {}
        self.resolved = False
        self.hedge_timer: threading.Timer | None = None


class ClusterGateway(FrontDoor):
    """Routes batches over a ring of thread and remote members.

    Parameters
    ----------
    config, preconditioner, nblocks, alpha, backend, cache_size,
    max_workers:
        Solver and executor parameters for *local* members (remote members
        were configured when their server started).
    cluster:
        The :class:`ClusterConfig` naming the members and the
        retry/hedge/transport policy.

    ``close(wait=True)`` lets in-flight batches and warm-ups finish, then
    closes every member; with ``wait=False`` batches still in flight fail
    typed through their members.

    Usage::

        cluster = ClusterConfig(members=[("alpha", "127.0.0.1:7101"),
                                         ("beta", "local")])
        with ClusterGateway(config, cluster=cluster) as gateway:
            futures = [gateway.submit(A, b) for b in rhs_stream]
            gateway.drain()
    """

    _door = "cluster"

    def __init__(self, config: F3RConfig | None = None,
                 cluster: ClusterConfig | None = None,
                 preconditioner="auto", nblocks: int | None = None,
                 alpha: float = 1.0, backend: str | None = None,
                 cache_size: int = 8, max_workers: int = 2) -> None:
        if cluster is None or not cluster.members:
            raise ValueError("cluster requires a ClusterConfig with members")
        self._init_ring(config, cluster)
        for name, target in cluster.members:
            if target == "local":
                self._add_thread_member(name, preconditioner, nblocks, alpha,
                                        backend, cache_size, max_workers)
            else:
                self._members[name] = RemoteShard(
                    target, name=name,
                    connect_timeout=cluster.connect_timeout,
                    heartbeat_interval=cluster.heartbeat_interval,
                    miss_limit=cluster.miss_limit,
                    max_inflight=cluster.max_inflight,
                    resend_timeout=cluster.resend_timeout,
                    backoff_base=cluster.backoff_base,
                    backoff_max=cluster.backoff_max,
                    reconnect_attempts=cluster.reconnect_attempts)

    def _init_ring(self, config, cluster: ClusterConfig,
                   priority_depths=None, overload=False) -> None:
        """The core's policy from ``cluster`` and ``overload`` (see
        :func:`~repro.serve.overload.resolve_controller`) plus an empty
        member table (the caller adds the members)."""
        controller = resolve_controller(overload)
        super().__init__(
            max_batch=cluster.max_batch, max_queue=cluster.max_queue,
            max_retries=cluster.max_retries,
            retry_backoff=cluster.retry_backoff,
            breaker_threshold=cluster.breaker_threshold,
            breaker_cooldown=cluster.breaker_cooldown,
            priority_depths=priority_depths, controller=controller)
        self.config = config or F3RConfig()
        self.cluster = cluster
        self._members: dict[str, object] = {}
        self.stats = DispatchStats(controller=controller,
                                   members_source=self)

    def _add_thread_member(self, name: str, preconditioner, nblocks, alpha,
                           backend, cache_size: int, max_workers: int) -> None:
        self._members[name] = ThreadMember(name, SetupExecutor(
            self.config, preconditioner, nblocks, alpha, backend, cache_size),
            max_workers)

    def prewarm(self, operators, wait: bool = True,
                timeout: float | None = None) -> list[Future]:
        """Build each operator's setup on its primary member.

        Completed warm-ups count in ``stats.summary()["cold_start"]``
        (``prewarms`` and their elapsed ``prewarm_ms``); a failed one counts
        nothing.  The returned futures are tracked: :meth:`close` fails the
        unfinished ones typed.
        """
        futures = []
        for operator in operators:
            fp = operator.fingerprint()
            outer = self._track_warm()
            futures.append(outer)
            self._warm(self._first_healthy(fp), fp, operator, "prewarms",
                       outer)
        if wait:
            for future in futures:
                future.result(timeout)
        return futures

    def _warm(self, member, fp: str, operator, counter: str,
              outer: Future | None = None) -> None:
        """Warm ``fp`` on ``member``; a completion counts ``counter`` and
        its elapsed time, and the outcome is relayed onto ``outer``."""
        begun = time.monotonic()
        try:
            if member is None:
                raise ShardUnreachable("cluster",
                                       "no healthy member for prewarm")
            inner = member.submit_warm(fp, lambda: operator)
        except Exception as exc:   # noqa: BLE001 - relayed typed
            if outer is not None:
                _resolve_once(outer, exc=exc)
            return

        def done(future: Future) -> None:
            exc = future.exception()
            if exc is None:
                with self._lock:
                    setattr(self.stats, counter,
                            getattr(self.stats, counter) + 1)
                    self.stats.prewarm_ms += (time.monotonic() - begun) * 1e3
            if outer is not None:
                _resolve_once(outer, exc=exc)

        inner.add_done_callback(done)

    def _admitted_locked(self, fp: str, operator):
        # opportunistic warm-up: a fingerprint evicted from a thread
        # member's setup LRU is back — rebuild it on an idle worker while its
        # group fills, unless the brownout controller reports pressure
        controller = self._overload
        if controller is not None and controller.suppress_background():
            return None
        member = self._first_healthy(fp)
        if not (isinstance(member, ThreadMember) and member.wants_warm(fp)):
            return None
        return lambda: self._warm(member, fp, operator,
                                  "opportunistic_warmups")

    def _occupancy_locked(self) -> float:
        threads = [m for m in self._members.values()
                   if isinstance(m, ThreadMember)]
        return (sum(m.busy / m.max_workers for m in threads) / len(threads)
                if threads else 0.0)

    def evict(self, fingerprint: str) -> bool:
        """Drop a fingerprint's setup on every member.  Returns whether a
        member held one (remote members evict best-effort and never say)."""
        return any([member.evict(fingerprint)
                    for member in self._members.values()])

    # -------------------------------------------------------------- #
    # Routing and flights
    # -------------------------------------------------------------- #
    def _ranked_members(self, fp: str) -> list:
        return [self._members[name]
                for name in rank_members(fp, list(self._members))]

    def _first_healthy(self, fp: str):
        for member in self._ranked_members(fp):
            if member.healthy:
                return member
        return None

    def _launch_batch(self, fp: str, operator, requests: list[_Request],
                      failover_from: str | None = None) -> None:
        self._breaker_check(fp)
        candidates = [m for m in self._ranked_members(fp) if m.healthy]
        if failover_from is not None and len(candidates) > 1:
            candidates = ([m for m in candidates
                           if m.name != failover_from] or candidates)
        if not candidates:
            self._fail_all(requests, ShardUnreachable(
                "cluster", f"no healthy members for fingerprint {fp!r}"))
            return
        flight = _Flight(fp, operator, requests)
        with self._cond:
            self._count_batch_locked(len(requests))
            if failover_from is not None:
                self.stats.failovers += 1
            # brownout: the degradable requests solve one precision tier
            # lower (members obey the flags; the recovery ladder stays on)
            controller = self._overload
            if (controller is not None and controller.should_degrade()
                    and degraded_variant(self.config.variant) is not None
                    and any(r.degradable for r in requests)):
                flight.degrade = [r.degradable for r in requests]
                self.stats.degraded += sum(flight.degrade)
        self._launch(flight, candidates[0], origin="primary")
        if (len(candidates) > 1
                and any(r.deadline is not None for r in requests)):
            delay = self._hedge_delay(candidates[0])
            if delay is not None:
                timer = threading.Timer(delay, self._hedge,
                                        args=(flight, candidates))
                timer.daemon = True
                flight.hedge_timer = timer
                timer.start()

    def _hedge_delay(self, member) -> float | None:
        cfg = self.cluster
        if cfg.hedge_ms is not None:
            return cfg.hedge_ms / 1e3
        rtt = member.rtt_percentile(cfg.hedge_percentile,
                                    min_samples=cfg.hedge_min_samples)
        if rtt is None:
            return None
        return rtt * cfg.hedge_factor

    def _hedge(self, flight: _Flight, candidates: list) -> None:
        with self._cond:
            if flight.resolved or self._closed:
                return
            primary_names = set(flight.outstanding)
        backup = next((m for m in candidates[1:]
                       if m.healthy and m.name not in primary_names), None)
        if backup is None:
            return
        with self._cond:
            self.stats.hedges += 1
        self._launch(flight, backup, origin="hedge")

    def _launch(self, flight: _Flight, member, origin: str) -> None:
        offset = time.time() - time.monotonic()
        deadlines = [None if r.deadline is None else r.deadline + offset
                     for r in flight.requests]
        if all(d is None for d in deadlines):
            deadlines = None
        rhs_block = np.stack([r.rhs for r in flight.requests], axis=1)
        operator = flight.operator
        try:
            future = member.submit_batch(
                flight.fp, rhs_block, lambda: operator,
                deadlines=deadlines, degrade=flight.degrade)
        except Exception as exc:   # noqa: BLE001 - typed transport failures
            self._transport_failed(flight, member, origin, exc)
            return
        with self._cond:
            flight.outstanding[member.name] = future
        future.add_done_callback(
            lambda f: self._member_done(flight, member, origin, f))

    def _member_done(self, flight: _Flight, member, origin: str,
                     future: Future) -> None:
        exc = future.exception()
        if exc is not None:
            self._transport_failed(flight, member, origin, exc)
            return
        slots, _snapshot = future.result()
        with self._cond:
            flight.outstanding.pop(member.name, None)
            if flight.resolved:
                # the hedge race's loser (or a duplicated delivery): every
                # request future already resolved exactly once — drop it
                self.stats.late_results += 1
                return
            flight.resolved = True
            timer, flight.hedge_timer = flight.hedge_timer, None
            if origin == "hedge":
                self.stats.hedge_wins += 1
        if timer is not None:
            timer.cancel()
        setup_failed = False
        for request, slot in zip(flight.requests, slots):
            if isinstance(slot, SolveResult):
                if slot.recovery is not None:
                    with self._cond:
                        self.stats.escalations += slot.recovery.escalations
                self._finish(request, result=slot)
            elif isinstance(slot, ExpiredRequest):
                self._expire(request,
                             f"deadline passed before execution on shard "
                             f"{member.name!r} (overshoot {slot.overshoot_s:.3f}s)")
            else:                         # RemoteError
                if slot.kind == "setup":
                    setup_failed = True
                self._finish(request, exc=slot.to_exception())
        self._breaker_record(flight.fp, ok=not setup_failed)

    def _transport_failed(self, flight: _Flight, member, origin: str,
                          exc: BaseException) -> None:
        with self._cond:
            flight.outstanding.pop(member.name, None)
            if flight.resolved:
                return
            if flight.outstanding:
                return      # a companion launch is still racing: it is the retry
            # the flight is dead: mark it resolved so a still-armed hedge
            # timer cannot launch duplicate work alongside the retry below
            flight.resolved = True
            timer, flight.hedge_timer = flight.hedge_timer, None
        if timer is not None:
            timer.cancel()
        self._retry_or_fail(
            flight.fp, flight.operator, flight.requests, exc,
            failover_from=(member.name if isinstance(exc, ShardUnreachable)
                           else None))

    def _quiesce(self, wait: bool) -> None:
        if not wait:
            return
        deadline = time.monotonic() + 60.0
        with self._cond:
            self._cond.wait_for(lambda: self._outstanding <= 0, timeout=60.0)
            warm_pending = list(self._warm_pending)
        wait_futures(warm_pending,
                     timeout=max(0.0, deadline - time.monotonic()))

    def _teardown(self) -> None:
        for member in self._members.values():
            member.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = {name: member.stats().get("state")
                  for name, member in self._members.items()}
        return f"ClusterGateway(members={states})"
