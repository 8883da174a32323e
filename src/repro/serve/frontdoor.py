"""The front-door core: one request policy for every serving entry point.

Every door — :class:`~repro.serve.BatchDispatcher` and
:class:`~repro.serve.ClusterGateway` — is a ring of members
(:mod:`repro.serve.cluster`).  Everything between a caller's ``submit`` and
that ring is :class:`FrontDoor`, written once here:

* **Boundary validation** — a mis-shaped or non-finite right-hand side is
  rejected at ``submit`` with a structured
  :class:`~repro.solvers.InvalidInput` before any setup work is spent.
* **Grouping** — requests are grouped by their operator's
  ``fingerprint()``; a group is dispatched as soon as it holds
  ``max_batch`` requests, or on the next :meth:`~FrontDoor.flush`.
* **Admission** — ``max_queue`` bounds the outstanding (accepted, not yet
  completed) requests; beyond it ``submit`` raises
  :class:`AdmissionRefused` instead of queueing unboundedly.
* **Priorities & load shedding** — ``submit(..., priority=)`` ranks
  requests; when ``max_queue`` fills, a door with a brownout controller
  sheds the lowest-priority, earliest-deadline *pending* request (typed
  :class:`LoadShed`, a subclass of :class:`AdmissionRefused`) to admit
  higher-priority work instead of refusing everything at the wall, and
  refuses the arrival itself when nothing pending is less important.
  ``priority_depths`` adds per-priority outstanding bounds.
* **Brownout** — a :class:`~repro.serve.overload.BrownoutController`
  (default on for the dispatcher; ``REPRO_OVERLOAD=0`` disables) is fed
  queue fill, deadline-miss and breaker-trip rates and the door's
  occupancy on every admission and completion; at its SHED level it
  refuses work below its priority floor at admission; at BROWNOUT the ring
  degrades ``degradable=True`` requests one precision tier.
* **Deadlines** — ``submit(..., deadline=seconds)`` attaches a per-request
  deadline; a request still undispatched past it fails with
  :class:`DeadlineExceeded` instead of occupying a batch slot.
* **Retry** — a batch that dies in transport (worker exception, dead
  server, unreachable shard) is re-dispatched after a linear backoff
  (``retry_backoff`` x attempts, on a timer — no worker sleeps through
  it), up to ``max_retries`` per request; only exhausted requests see the
  error.  :class:`~repro.solvers.InvalidInput`, :class:`DispatcherClosed`
  and :class:`CircuitOpen` are never retried.
* **Circuit breaker** — ``breaker_threshold`` consecutive *setup* failures
  for one operator fingerprint open its breaker: further batches fail fast
  with :class:`CircuitOpen` until ``breaker_cooldown`` elapses and a probe
  is let through (half-open); the probe's failure re-opens the breaker,
  its success closes it.
* **Drain and close** — :meth:`~FrontDoor.drain` flushes and waits until
  every admitted request has resolved, retries included.
  :meth:`~FrontDoor.close` refuses new work and fails never-dispatched
  requests, timer-pending retries and unfinished warm-ups with
  :class:`DispatcherClosed`, so no caller blocks forever.

Every request future resolves exactly once, and its admission slot is
released by whichever path resolves it.  ``stats.summary()["recovery"]``
counts retries, breaker trips, deadline misses and rejections;
``stats.summary()["overload"]`` the sheds and the controller state.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..solvers.guards import InvalidInput

__all__ = [
    "AdmissionRefused",
    "CircuitOpen",
    "DeadlineExceeded",
    "DispatchStats",
    "DispatcherClosed",
    "FrontDoor",
    "LoadShed",
]


class DispatcherClosed(RuntimeError):
    """The front door no longer accepts or will never run this work."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before its batch was executed."""


class AdmissionRefused(RuntimeError):
    """The front door's outstanding-request bound (``max_queue``) is full."""


class LoadShed(AdmissionRefused):
    """This request was shed under overload (priority admission policy).

    Raised on a *pending* request's future when a higher-priority arrival
    displaces it from a full queue, and at ``submit`` when the incoming
    request itself is the lowest-priority work in sight (or falls below the
    SHED-state priority floor).  Subclasses :class:`AdmissionRefused`:
    callers that catch the hard admission wall keep working unchanged.
    """

    def __init__(self, message: str, priority: int | None = None) -> None:
        super().__init__(message)
        self.priority = priority


class CircuitOpen(RuntimeError):
    """Setup for this operator fingerprint keeps failing; failing fast."""


#: failures a retry cannot fix
_FINAL = (InvalidInput, DispatcherClosed, CircuitOpen)


@dataclass
class _Breaker:
    """Per-fingerprint setup-failure state."""

    failures: int = 0
    opened_at: float | None = None


@dataclass
class DispatchStats:
    """Counters describing what a front door and its ring have done so far.

    All mutation happens under the owning door's lock; the stats object
    itself is plain data.  ``cache_hits`` / ``cache_misses`` are summed over
    the setup executors of the door's members (``members_source``); the
    ring's routing counters (``hedges`` … ``late_results``) sit beside the
    core's.
    """

    requests: int = 0
    batches: int = 0
    batched_requests: int = 0
    largest_batch: int = 0
    escalations: int = 0
    retries: int = 0
    breaker_trips: int = 0
    deadline_misses: int = 0
    rejected: int = 0
    shed: int = 0
    degraded: int = 0
    shed_by_priority: dict = field(default_factory=dict)
    prewarms: int = 0
    opportunistic_warmups: int = 0
    prewarm_ms: float = 0.0
    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    late_results: int = 0

    #: the owning door's BrownoutController (None when disabled) —
    #: summary() folds its state in
    controller: object = None
    #: the owning door — the cache counters are read from its members
    members_source: object = field(default=None, repr=False)

    def _member_snapshots(self) -> dict:
        """One ``stats()`` snapshot per member of the owning door, by name."""
        door = self.members_source
        return ({} if door is None else
                {name: member.stats() for name, member in door._members.items()})

    @staticmethod
    def _executor_total(members: dict, key: str) -> int:
        return sum(int(m.get("server", {}).get(key, 0) or 0)
                   for m in members.values())

    @property
    def cache_hits(self) -> int:
        return self._executor_total(self._member_snapshots(), "cache_hits")

    @property
    def cache_misses(self) -> int:
        return self._executor_total(self._member_snapshots(), "cache_misses")

    def summary(self) -> dict:
        """Door counters plus the plan-layer state a production
        deployment watches: the plan cache, the robustness
        counters (``recovery``), the cold-start picture (``cold_start``:
        warm-up completions plus the persistent artifact cache's
        hit/miss/saved-time counters) and the ring (``cluster``: the
        member table and the routing counters).  Every member is
        snapshotted once per call."""
        from ..cache import cold_start_stats
        from ..plans import plan_cache_stats

        members = self._member_snapshots()
        artifacts = cold_start_stats()
        if self.controller is not None:
            overload = dict(self.controller.summary())
        else:
            overload = {"state": "disabled", "pressure": 0.0,
                        "observations": 0, "transitions": 0,
                        "entries": {}, "last_transitions": []}
        overload["shed"] = self.shed
        overload["degraded"] = self.degraded
        overload["shed_by_priority"] = {
            str(p): n for p, n in sorted(self.shed_by_priority.items())}

        def agg(key: str) -> int:
            return sum(int(m.get(key, 0) or 0) for m in members.values())

        return {
            "requests": self.requests,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "cache_hits": self._executor_total(members, "cache_hits"),
            "cache_misses": self._executor_total(members, "cache_misses"),
            "largest_batch": self.largest_batch,
            "recovery": {
                "escalations": self.escalations,
                "retries": self.retries,
                "breaker_trips": self.breaker_trips,
                "deadline_misses": self.deadline_misses,
                "rejected": self.rejected,
            },
            "overload": overload,
            "plan_cache": plan_cache_stats(),
            "cold_start": {
                "prewarms": self.prewarms,
                "opportunistic_warmups": self.opportunistic_warmups,
                "prewarm_ms": round(self.prewarm_ms, 3),
                "setup_ms_saved": round(artifacts["saved_ms"], 3),
                "artifacts": artifacts,
            },
            "cluster": {
                "members": members,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "failovers": self.failovers,
                "late_results": self.late_results,
                "reconnects": agg("reconnects"),
                "resends": agg("resends"),
                "heartbeat_misses": agg("heartbeat_misses"),
                "dead_members": sorted(
                    name for name, m in members.items()
                    if m.get("state") in ("down", "closed")),
            },
        }


def _resolve_once(future: Future, result=None, exc=None) -> None:
    """Resolve a future, tolerating a concurrent resolution (close vs task)."""
    if future.done():
        return
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)
    except Exception:      # InvalidStateError: the race lost — already resolved
        pass


class _Request:
    __slots__ = ("rhs", "future", "deadline", "attempts", "priority",
                 "degradable", "seq", "settled")

    def __init__(self, rhs: np.ndarray, deadline: float | None = None,
                 priority: int = 0, degradable: bool = False) -> None:
        self.rhs = rhs
        self.future: Future = Future()
        self.deadline = deadline          # absolute time.monotonic(), or None
        self.attempts = 0
        self.priority = priority
        self.degradable = degradable
        self.seq = 0                      # admission order (shed tie-break)
        self.settled = False              # admission slot released


class FrontDoor:
    """Request policy shared by the serving front doors.

    The transport — :class:`~repro.serve.cluster.ClusterGateway` — sets
    ``self.stats`` (a :class:`DispatchStats`) and implements the hooks:
    ``_launch_batch(fp, operator, requests, **launch)`` hands one batch to
    it (what it raises goes to the retry path), ``_occupancy_locked()`` is
    the brownout occupancy signal, ``_admitted_locked(fp, operator)`` may
    return work to start once a request is queued, and ``_quiesce(wait)``
    and ``_teardown()`` are its part of :meth:`close`.  ``_door`` names the
    door in messages and in :class:`~repro.solvers.InvalidInput` sites.
    """

    _door = "front door"

    def __init__(self, *, max_batch: int, max_queue: int | None,
                 max_retries: int, retry_backoff: float,
                 breaker_threshold: int, breaker_cooldown: float,
                 priority_depths: dict[int, int] | None = None,
                 controller=None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self.max_batch = int(max_batch)
        self.max_queue = max_queue
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.priority_depths = (None if priority_depths is None
                                else dict(priority_depths))
        self._overload = controller
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # fingerprint -> (operator, [pending requests]); insertion-ordered
        # so flush dispatches groups in arrival order
        self._pending: OrderedDict[str, tuple[object, list[_Request]]] = \
            OrderedDict()
        self._breakers: dict[str, _Breaker] = {}
        self._retries: dict[threading.Timer, list[_Request]] = {}
        self._warm_pending: list[Future] = []
        self._outstanding = 0
        self._by_priority: dict[int, int] = {}
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, matrix, rhs: np.ndarray, deadline: float | None = None,
               priority: int = 0, degradable: bool = False) -> Future:
        """Enqueue one solve request; returns a future resolving to its
        :class:`~repro.solvers.SolveResult`.

        ``matrix`` is an assembled :class:`~repro.sparse.CSRMatrix` or any
        :class:`~repro.operators.LinearOperator`.  The request is dispatched
        when its operator group fills to ``max_batch`` or on the next
        :meth:`flush`.  ``deadline`` is seconds from now; ``priority``
        (higher = more important) ranks the request for load shedding;
        ``degradable=True`` lets the brownout controller start the solve
        one precision tier lower under pressure.

        Raises :class:`~repro.solvers.InvalidInput` for a mis-shaped or
        non-finite right-hand side, :class:`AdmissionRefused` (or its
        :class:`LoadShed` subtype) when admission fails, and
        :class:`DispatcherClosed` after :meth:`close`.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        site = f"{self._door}.submit"
        if rhs.shape != (matrix.nrows,):
            raise InvalidInput(
                f"rhs has shape {rhs.shape}; expected ({matrix.nrows},)",
                site=site,
                detail={"shape": tuple(rhs.shape), "expected_rows": matrix.nrows})
        if not np.all(np.isfinite(rhs)):
            bad = int(np.flatnonzero(~np.isfinite(rhs))[0])
            raise InvalidInput(
                f"rhs contains non-finite entries (first at index {bad})",
                site=site, detail={"first_bad_row": bad})
        request = _Request(
            rhs, None if deadline is None else time.monotonic() + float(deadline),
            priority=int(priority), degradable=bool(degradable))
        ready = None
        with self._lock:
            if self._closed:
                raise DispatcherClosed(f"{self._door} is closed")
            self._seq += 1
            request.seq = self._seq
            victim = self._admit_locked(request)
            self.stats.requests += 1
            self._outstanding += 1
            self._by_priority[request.priority] = \
                self._by_priority.get(request.priority, 0) + 1
            fp = matrix.fingerprint()
            group = self._pending.setdefault(fp, (matrix, []))
            group[1].append(request)
            if len(group[1]) >= self.max_batch:
                ready = self._pending.pop(fp)
            after = self._admitted_locked(fp, matrix)
        if victim is not None:
            _resolve_once(victim.future, exc=LoadShed(
                f"shed at priority {victim.priority}: displaced by a "
                f"priority {request.priority} arrival under queue pressure",
                priority=victim.priority))
        if after is not None:
            after()
        if ready is not None:
            self._dispatch(fp, *ready)
        return request.future

    def flush(self) -> None:
        """Dispatch every pending group, regardless of its size."""
        with self._lock:
            groups = list(self._pending.items())
            self._pending.clear()
        for fp, (operator, requests) in groups:
            self._dispatch(fp, operator, requests)

    def drain(self) -> None:
        """Flush and block until every admitted request has resolved,
        including requests waiting out a retry backoff."""
        self.flush()
        with self._cond:
            self._cond.wait_for(lambda: self._outstanding <= 0)

    def solve_many(self, pairs) -> list:
        """Submit ``(operator, rhs)`` pairs, run everything, return results in order."""
        futures = [self.submit(matrix, rhs) for matrix, rhs in pairs]
        self.drain()
        return [f.result() for f in futures]

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _observe_locked(self) -> None:
        """Feed the brownout controller one snapshot (caller holds the lock)."""
        controller = self._overload
        if controller is None:
            return
        controller.observe(
            queue_fill=(self._outstanding / self.max_queue
                        if self.max_queue else 0.0),
            occupancy=self._occupancy_locked(),
            deadline_misses=self.stats.deadline_misses,
            breaker_trips=self.stats.breaker_trips,
            requests=self.stats.requests)

    def _shed_mark_locked(self, priority: int) -> None:
        self.stats.shed += 1
        self.stats.shed_by_priority[priority] = \
            self.stats.shed_by_priority.get(priority, 0) + 1

    def _admit_locked(self, request: _Request) -> _Request | None:
        """Apply the admission policy to an arrival: raise when it is
        refused, return the pending request it displaces (or ``None``)."""
        controller = self._overload
        priority = request.priority
        self._observe_locked()
        if controller is not None and not controller.admits(priority):
            self._shed_mark_locked(priority)
            raise LoadShed(
                f"shedding priority {priority} below floor "
                f"{controller.config.shed_priority_floor} "
                f"(overload state {controller.state!r})", priority=priority)
        if self.priority_depths is not None:
            bound = self.priority_depths.get(priority)
            if bound is not None and self._by_priority.get(priority, 0) >= bound:
                self._shed_mark_locked(priority)
                raise LoadShed(f"priority {priority} outstanding bound "
                               f"{bound} is full", priority=priority)
        if self.max_queue is None or self._outstanding < self.max_queue:
            return None
        victim = (self._shed_victim_locked(priority)
                  if controller is not None else None)
        if victim is not None:
            return victim
        self.stats.rejected += 1
        if controller is None:
            raise AdmissionRefused(
                f"outstanding requests at max_queue={self.max_queue}")
        self._shed_mark_locked(priority)
        raise LoadShed(
            f"outstanding requests at max_queue={self.max_queue} "
            f"and nothing below priority {priority} to shed", priority=priority)

    def _shed_victim_locked(self, priority: int) -> _Request | None:
        """Pop the lowest-priority-earliest-deadline pending request strictly
        below ``priority``, releasing its admission slot; ``None`` when every
        pending request is at least as important as the arrival."""
        best_key, best = None, None
        for fp, (_, reqs) in self._pending.items():
            for req in reqs:
                if req.priority >= priority:
                    continue
                order = (req.priority,
                         req.deadline if req.deadline is not None
                         else float("inf"),
                         req.seq)
                if best_key is None or order < best_key:
                    best_key, best = order, (fp, req)
        if best is None:
            return None
        fp, victim = best
        group = self._pending[fp]
        group[1].remove(victim)
        if not group[1]:
            del self._pending[fp]
        self._release_locked(victim)
        self._shed_mark_locked(victim.priority)
        return victim

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _release_locked(self, request: _Request) -> None:
        request.settled = True
        self._outstanding -= 1
        self._by_priority[request.priority] = \
            self._by_priority.get(request.priority, 0) - 1
        if self._outstanding <= 0:
            self._cond.notify_all()

    def _finish(self, request: _Request, result=None, exc=None) -> None:
        """Resolve a request exactly once: the caller that claims it releases
        its admission slot and resolves its future."""
        with self._lock:
            if request.settled:
                return
            self._release_locked(request)
            # completions are observations too: pressure recovers as the
            # queue drains even if no new submissions arrive
            self._observe_locked()
        _resolve_once(request.future, result=result, exc=exc)

    def _fail_all(self, requests: list[_Request], exc: BaseException) -> None:
        for request in requests:
            self._finish(request, exc=exc)

    def _expire(self, request: _Request, message: str) -> None:
        with self._lock:
            self.stats.deadline_misses += 1
        self._finish(request, exc=DeadlineExceeded(message))

    def _split_expired(self, requests: list[_Request]) -> list[_Request]:
        """Fail past-deadline requests; return the still-live ones."""
        now = time.monotonic()
        live = []
        for req in requests:
            if req.deadline is not None and now > req.deadline:
                self._expire(req, f"deadline passed {now - req.deadline:.3f}s "
                                  f"before execution")
            else:
                live.append(req)
        return live

    def _count_batch_locked(self, size: int) -> None:
        self.stats.batches += 1
        self.stats.batched_requests += size
        self.stats.largest_batch = max(self.stats.largest_batch, size)

    # ------------------------------------------------------------------ #
    # Dispatch, retry, breaker
    # ------------------------------------------------------------------ #
    def _dispatch(self, fp: str, operator, requests: list[_Request],
                  **launch) -> None:
        requests = self._split_expired(requests)
        if not requests:
            return
        if self._closed:
            self._fail_all(requests, DispatcherClosed(
                f"{self._door} closed before dispatch"))
            return
        try:
            self._launch_batch(fp, operator, requests, **launch)
        except BaseException as exc:   # noqa: BLE001 - routed to retry policy
            self._retry_or_fail(fp, operator, requests, exc, **launch)

    def _retry_or_fail(self, fp: str, operator, requests: list[_Request],
                       exc: BaseException, **launch) -> None:
        """Re-dispatch a died batch's surviving requests after a backoff;
        fail the exhausted ones with ``exc``."""
        retryable, exhausted = [], []
        for req in requests:
            if req.settled:
                continue
            if req.attempts < self.max_retries and not isinstance(exc, _FINAL):
                req.attempts += 1
                retryable.append(req)
            else:
                exhausted.append(req)
        self._fail_all(exhausted, exc)
        if not retryable:
            return
        # backoff on a timer: the thread that saw the failure (a pool worker,
        # a collector, a socket reader) goes straight back to other work
        delay = self.retry_backoff * max(r.attempts for r in retryable)
        timer = threading.Timer(
            delay, lambda: self._retry_due(timer, fp, operator, launch))
        timer.daemon = True
        with self._lock:
            closed = self._closed
            if not closed:
                self._retries[timer] = retryable
                self.stats.retries += len(retryable)
        if closed:
            self._fail_all(retryable, DispatcherClosed(
                f"{self._door} closed before retry"))
            return
        timer.start()

    def _retry_due(self, timer: threading.Timer, fp: str, operator,
                   launch: dict) -> None:
        with self._lock:
            requests = self._retries.pop(timer, None)
        if requests is not None:          # else close() already failed them
            self._dispatch(fp, operator, requests, **launch)

    def _breaker_check(self, fp: str) -> None:
        """Raise :class:`CircuitOpen` when the fingerprint's breaker is open."""
        with self._lock:
            breaker = self._breakers.get(fp)
            if breaker is None or breaker.opened_at is None:
                return
            if time.monotonic() - breaker.opened_at >= self.breaker_cooldown:
                # half-open: let one probe attempt through; a failure re-opens
                breaker.opened_at = None
                breaker.failures = self.breaker_threshold - 1
                return
        raise CircuitOpen(
            f"setup circuit open for operator {fp!r} "
            f"({self.breaker_threshold} consecutive failures)")

    def _breaker_record(self, fp: str, ok: bool) -> None:
        with self._lock:
            if ok:
                self._breakers.pop(fp, None)
                return
            breaker = self._breakers.setdefault(fp, _Breaker())
            breaker.failures += 1
            if (breaker.failures >= self.breaker_threshold
                    and breaker.opened_at is None):
                breaker.opened_at = time.monotonic()
                self.stats.breaker_trips += 1

    # ------------------------------------------------------------------ #
    # Warm-ups and shutdown
    # ------------------------------------------------------------------ #
    def _track_warm(self) -> Future:
        """A caller-facing prewarm future; :meth:`close` fails it typed if
        the warm-up has not finished by then."""
        outer: Future = Future()
        with self._lock:
            if self._closed:
                raise DispatcherClosed(f"{self._door} is closed")
            self._warm_pending = [f for f in self._warm_pending if not f.done()]
            self._warm_pending.append(outer)
        return outer

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and shut the transport down.

        Pending (never-dispatched) requests and timer-pending retries fail
        with :class:`DispatcherClosed`.  ``wait`` asks the transport to let
        in-flight batches complete; each door documents what ``wait=False``
        abandons.  Warm-ups still unfinished afterwards fail typed too.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            abandoned = [req for _, reqs in self._pending.values() for req in reqs]
            self._pending.clear()
            for timer, reqs in self._retries.items():
                timer.cancel()
                abandoned.extend(reqs)
            self._retries.clear()
        self._fail_all(abandoned, DispatcherClosed(
            f"{self._door} closed before dispatch"))
        self._quiesce(wait)
        with self._lock:
            warm_pending, self._warm_pending = self._warm_pending, []
        for outer in warm_pending:
            _resolve_once(outer, exc=DispatcherClosed(
                f"{self._door} closed before warm-up completed"))
        self._teardown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        # finish the work on a clean exit; tear down fast on an exception
        if exc_info[0] is None:
            self.drain()
        self.close()
