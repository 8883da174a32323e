"""The setup executor: the one place a serving batch meets a solver.

Every member of the ring (:mod:`repro.serve.cluster`) runs a batch the same
way — "solve these columns on this operator's cached setup" — and this
module is that job, written once:

* :class:`SetupExecutor` owns one process's solver setups: an LRU of
  ``cache_size`` setups keyed by operator fingerprint, single-flight builds,
  the per-fingerprint FIFO order that keeps ``max_workers=N`` bit-identical
  to ``max_workers=1`` for a fixed dispatch order, the brownout split of
  flagged columns onto ``degraded_sibling``, the backend scope, and the
  counters every member reports.
  Compiled plans sit in their own fingerprint-keyed cache alongside the
  LRU, so a setup rebuilt after eviction re-binds its plans instantly.
* :class:`ThreadMember` is the executor on a thread pool: the member of
  ``BatchDispatcher`` and of a ``"local"`` cluster target, and what a
  ``ShardServer`` serves.

A batch's slots are final: a ``SolveResult``, an :class:`ExpiredRequest`
for a column whose wall-clock deadline passed before it ran, or a
``"setup"`` :class:`RemoteError` when the setup failed to build.  A failure
while solving raises instead, so the ring retries the batch.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..backends import use_backend
from ..core import F3RConfig, F3RSolver, degraded_variant
from ..faults import maybe_delay, maybe_fail_worker
from .frontdoor import DispatcherClosed, _resolve_once

__all__ = ["ExpiredRequest", "RemoteError", "SetupExecutor", "ThreadMember",
           "WorkerError"]

#: the counters an executor reports in every member snapshot
_COUNTERS = ("batches", "requests", "cache_hits", "cache_misses",
             "escalations", "expired", "degraded_batches")


@dataclass(frozen=True)
class ExpiredRequest:
    """Per-request marker in a result list: its deadline passed before the
    batch ran, so no solve was attempted (picklable)."""

    overshoot_s: float


@dataclass(frozen=True)
class RemoteError:
    """Per-slot failure marker in a result list (picklable).

    ``kind`` follows the :class:`WorkerError` taxonomy; a ``"setup"`` slot
    (the setup failed to build) feeds the caller's circuit breaker.
    """

    kind: str
    type_name: str
    message: str

    def to_exception(self) -> Exception:
        return WorkerError(self.kind, self.type_name, self.message)


class WorkerError(RuntimeError):
    """An exception raised inside a member, relayed by (type, message).

    ``kind`` distinguishes ``"setup"`` failures (solver construction — feeds
    the door's per-fingerprint circuit breaker) from ``"solve"`` failures
    (retryable like any died batch) and ``"stale"`` bookkeeping misses (the
    server no longer holds the fingerprint's setup — the caller forgets the
    fingerprint and reships it, without charging the breaker).
    """

    def __init__(self, kind: str, type_name: str, message: str) -> None:
        super().__init__(f"worker {kind} error: {type_name}: {message}")
        self.kind = kind
        self.type_name = type_name
        self.message = message


class SetupExecutor:
    """Cached solver setups and the batches solved on them (see the module
    docstring).

    ``config``, ``preconditioner``, ``nblocks`` and ``alpha`` configure each
    :class:`~repro.core.F3RSolver` built; ``backend`` is the kernel backend
    solves run on (default: the process default).  ``on_evict(fp)`` runs
    after a fingerprint's setup leaves the cache (LRU eviction,
    :meth:`evict`, or a failed build), outside the executor's lock — the
    :class:`~repro.serve.remote.ShardServer` drops the fingerprint's shipped
    operator there.
    """

    def __init__(self, config: F3RConfig | None = None, preconditioner="auto",
                 nblocks: int | None = None, alpha: float = 1.0,
                 backend: str | None = None, cache_size: int = 8,
                 on_evict=None) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.config = config or F3RConfig()
        self.backend = backend
        self.cache_size = int(cache_size)
        self._precond_spec = (preconditioner, nblocks, alpha)
        self._on_evict = on_evict
        self._lock = threading.Lock()
        self._solvers: OrderedDict[str, F3RSolver] = OrderedDict()
        self._building: dict[str, Future] = {}
        # fingerprints evicted from the LRU, for opportunistic warm-ups
        # (bounded, insertion-ordered)
        self._evicted: OrderedDict[str, None] = OrderedDict()
        # per-fingerprint order: tickets are taken in dispatch order (see
        # ThreadMember.submit_batch), so a batch waiting for its turn always
        # has its predecessor already running — no deadlock is possible
        self._turns = threading.Condition()
        self._issued: dict[str, int] = {}
        self._served: dict[str, int] = {}
        self._abandoned = False
        self._counters = dict.fromkeys(_COUNTERS, 0)

    def stats(self) -> dict:
        with self._lock:
            return dict(self._counters)

    def _count(self, **deltas) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self._counters[key] += delta

    # -------------------------------------------------------------- #
    # Setup cache
    # -------------------------------------------------------------- #
    def setup(self, fp: str, setup_factory) -> F3RSolver:
        """The fingerprint's cached solver, built from ``setup_factory()``
        on a miss (one build at a time per fingerprint)."""
        with self._lock:
            solver = self._solvers.get(fp)
            if solver is not None:
                self._solvers.move_to_end(fp)
                self._counters["cache_hits"] += 1
                return solver
            build = self._building.get(fp)
            is_builder = build is None
            if is_builder:
                build = self._building[fp] = Future()
                self._counters["cache_misses"] += 1
            else:
                self._counters["cache_hits"] += 1
        if not is_builder:
            return build.result()
        preconditioner, nblocks, alpha = self._precond_spec
        try:
            solver = F3RSolver(setup_factory(), preconditioner=preconditioner,
                               config=self.config, nblocks=nblocks,
                               alpha=alpha)
        except BaseException as exc:   # noqa: BLE001 - relayed to waiters
            with self._lock:
                self._building.pop(fp, None)
            build.set_exception(exc)
            self._released([fp])
            raise
        with self._lock:
            self._solvers[fp] = solver
            self._evicted.pop(fp, None)
            dropped = []
            while len(self._solvers) > self.cache_size:
                old, _ = self._solvers.popitem(last=False)
                dropped.append(old)
                self._evicted[old] = None
                while len(self._evicted) > 4 * self.cache_size:
                    self._evicted.popitem(last=False)
            self._building.pop(fp, None)
        build.set_result(solver)
        self._released(dropped)
        return solver

    def warm(self, fp: str, setup_factory) -> None:
        """Build (or touch) the fingerprint's setup without solving."""
        self.setup(fp, setup_factory)

    def take_evicted(self, fp: str) -> bool:
        """Whether ``fp`` was evicted and is neither cached nor building;
        a True answer is given once (the caller starts the rebuild)."""
        with self._lock:
            if (fp not in self._evicted or fp in self._solvers
                    or fp in self._building):
                return False
            del self._evicted[fp]
            return True

    def evict(self, fp: str) -> bool:
        """Drop the fingerprint's setup; returns whether one was cached."""
        with self._lock:
            cached = self._solvers.pop(fp, None) is not None
        self._released([fp])
        return cached

    def _released(self, fps: list) -> None:
        if self._on_evict is not None:
            for fp in fps:
                self._on_evict(fp)

    # -------------------------------------------------------------- #
    # Per-fingerprint order
    # -------------------------------------------------------------- #
    def ticket(self, fp: str) -> int:
        """Take the next execution ticket for ``fp`` (in dispatch order)."""
        with self._turns:
            ticket = self._issued.get(fp, 0)
            self._issued[fp] = ticket + 1
            return ticket

    def abandon_order(self) -> None:
        """Release every batch waiting for a turn (tickets of cancelled
        batches never come up)."""
        with self._turns:
            self._abandoned = True
            self._turns.notify_all()

    def _wait_turn(self, fp: str, ticket: int) -> None:
        with self._turns:
            while (not self._abandoned
                   and self._served.get(fp, 0) < ticket):
                self._turns.wait(timeout=1.0)

    def _end_turn(self, fp: str, ticket: int) -> None:
        with self._turns:
            self._served[fp] = max(self._served.get(fp, 0), ticket + 1)
            if self._served[fp] >= self._issued.get(fp, 0):
                # every issued ticket consumed: drop the bookkeeping
                self._served.pop(fp, None)
                self._issued.pop(fp, None)
            self._turns.notify_all()

    # -------------------------------------------------------------- #
    # Batches
    # -------------------------------------------------------------- #
    def run(self, fp: str, setup_factory, rhs_block: np.ndarray,
            deadlines=None, degrade=None, ticket: int | None = None,
            before=None) -> list:
        """Solve one batch of columns; returns one final slot per column.

        ``deadlines`` are per-column wall-clock absolutes (or ``None``);
        ``degrade`` flags the columns that solve, as their own batch after
        the others, one precision tier lower.  With a ``ticket`` the batch
        first waits for its turn on ``fp``.  ``before()`` runs once there
        are live columns, before the setup — a member's fault sites and
        protocol checks; what it raises propagates.
        """
        if ticket is not None:
            self._wait_turn(fp, ticket)
        try:
            return self._run(fp, setup_factory, rhs_block, deadlines, degrade,
                             before)
        finally:
            if ticket is not None:
                self._end_turn(fp, ticket)

    def _run(self, fp, setup_factory, rhs_block, deadlines, degrade,
             before) -> list:
        ncols = rhs_block.shape[1]
        slots: list = [None] * ncols
        live = []
        now = time.time()
        for i in range(ncols):
            wall = None if deadlines is None else deadlines[i]
            if wall is not None and now > wall:
                slots[i] = ExpiredRequest(overshoot_s=now - wall)
            else:
                live.append(i)
        if len(live) < ncols:
            self._count(expired=ncols - len(live))
        if not live:
            return slots
        if before is not None:
            before()
        try:
            solver = self.setup(fp, setup_factory)
        except Exception as exc:   # noqa: BLE001 - final "setup" slots
            failure = RemoteError("setup", type(exc).__name__, str(exc))
            for i in live:
                slots[i] = failure
            return slots
        lower = degraded_variant(self.config.variant) if degrade else None
        low = [i for i in live if degrade[i]] if lower else []
        parts = [([i for i in live if i not in low], solver)]
        if low:
            parts.append((low, solver.degraded_sibling(lower)))
        with use_backend(self.backend) if self.backend else nullcontext():
            batches = [(cols, part_solver.solve_batch(
                rhs_block if len(cols) == ncols
                else np.ascontiguousarray(rhs_block[:, cols])))
                for cols, part_solver in parts if cols]
        escalations = 0
        for cols, batch in batches:
            for i, result in zip(cols, batch.results):
                slots[i] = result
                if result.recovery is not None:
                    escalations += int(result.recovery.escalations)
        self._count(batches=len(batches), requests=len(live),
                    escalations=escalations, degraded_batches=int(bool(low)))
        return slots


def _fault_sites() -> None:
    """The thread member's injection points (latency, then a worker death)."""
    maybe_delay("dispatcher.latency")
    maybe_fail_worker("dispatcher.worker")


class ThreadMember:
    """A :class:`SetupExecutor` on ``max_workers`` threads, behind the ring's
    member contract.  Scratch state is per-thread, so one cached solver may
    run batches on several threads at once; batches for one fingerprint
    still run in dispatch order."""

    def __init__(self, name: str, executor: SetupExecutor,
                 max_workers: int = 2) -> None:
        self.name = name
        self.executor = executor
        self.max_workers = int(max_workers)
        self.busy = 0
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        self._closed = False

    @property
    def healthy(self) -> bool:
        return not self._closed

    def _submit(self, task, *args) -> Future:
        """Run ``task(*args)`` on the pool; resolve the returned future with
        its ``(slots, snapshot)`` or its exception, exactly once."""
        outer: Future = Future()

        def body() -> None:
            with self._lock:
                self.busy += 1
            try:
                outcome = {"result": (task(*args), self.snapshot())}
            except BaseException as exc:   # noqa: BLE001 - relayed
                outcome = {"exc": exc}
            with self._lock:
                self.busy -= 1
            _resolve_once(outer, **outcome)

        def cancelled(done: Future) -> None:
            if done.cancelled():            # close() before the task ran
                _resolve_once(outer, exc=DispatcherClosed(
                    f"member {self.name!r} closed before the batch ran"))

        self._pool.submit(body).add_done_callback(cancelled)
        return outer

    def submit_batch(self, fingerprint: str, rhs_block: np.ndarray,
                     setup_factory, deadlines=None, degrade=None) -> Future:
        # the ticket and the pool's FIFO position are taken together
        with self._lock:
            ticket = self.executor.ticket(fingerprint)
            return self._submit(self.executor.run, fingerprint, setup_factory,
                                rhs_block, deadlines, degrade, ticket,
                                _fault_sites)

    def submit_warm(self, fingerprint: str, setup_factory) -> Future:
        def warm() -> list:
            self.executor.warm(fingerprint, setup_factory)
            return []
        return self._submit(warm)

    def wants_warm(self, fingerprint: str) -> bool:
        """An evicted fingerprint is back and a worker is idle: the caller
        should rebuild its setup now (answered True once per eviction)."""
        return (self.busy < self.max_workers
                and self.executor.take_evicted(fingerprint))

    def evict(self, fingerprint: str) -> bool:
        return self.executor.evict(fingerprint)

    def rtt_percentile(self, q: float, min_samples: int = 1) -> None:
        return None                      # local batches are never hedged off

    def snapshot(self) -> dict:
        return {"name": self.name, **self.executor.stats()}

    def stats(self) -> dict:
        return {"name": self.name, "kind": "local",
                "state": "closed" if self._closed else "up",
                "server": self.snapshot()}

    def close(self) -> None:
        self._closed = True
        self.executor.abandon_order()
        self._pool.shutdown(wait=False, cancel_futures=True)
