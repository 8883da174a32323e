"""Request batching and preconditioner caching for high-throughput serving.

A production deployment of the solver faces many concurrent, mostly repetitive
solve requests: the same handful of operators (one per model / grid / time
step) hit with ever-changing right-hand sides.  The
:class:`BatchDispatcher` turns that request stream into efficient work:

* **Grouping** — incoming ``(operator, rhs)`` requests are grouped by the
  operator's ``fingerprint()`` — assembled matrices and matrix-free stencil
  operators flow through one queue — so requests against the same operator
  land in the same batch even when callers hold different operator objects:
  independently *built* equal operators share a content hash, and precision
  casts of one operator share an O(1) key derived from their common source
  (a cast copy does not, however, batch with an equal matrix built directly
  at the target precision — see :meth:`~repro.sparse.CSRMatrix.fingerprint`).
* **Setup caching** — the expensive per-matrix setup (precision casts, ILU(0)
  factorization, triangular-solve plans) is built once per
  ``(fingerprint, config)`` and kept in a bounded LRU; subsequent batches
  reuse it.  Compiled :class:`~repro.plans.SolvePlan` objects sit in their
  own fingerprint-keyed cache *alongside* this LRU — a solver evicted from
  the setup cache and rebuilt for returning traffic re-binds its plans (and
  the measured autotune verdicts) instantly instead of re-deriving them;
  :attr:`DispatchStats.summary` surfaces both caches.
* **Batched execution** — each group is solved with
  :meth:`~repro.core.F3RSolver.solve_batch`, so the hot kernels run as
  SpMM / batched triangular solves instead of per-request vector kernels.
* **Worker threads** — batches execute on a thread pool.  Every object with
  scratch state (matrices, factors, solver levels) carries per-thread
  workspaces (:class:`~repro.backends.workspace.ThreadLocalWorkspace`), so
  one cached solver may execute batches on several workers concurrently.
* **Ordered execution per fingerprint** — the adaptive Richardson weights
  are shared solver state that evolves across batches, so batches against
  *the same* operator execute in dispatch order (a per-fingerprint ticket
  taken at dispatch time; a worker whose batch is not next in line for its
  fingerprint waits for its turn).  Batches against different operators
  still run fully in parallel.  Result: ``max_workers=N`` is bit-identical
  to ``max_workers=1`` for any fixed dispatch order — the former PR 8
  caveat that concurrent same-fingerprint batches race the weights is
  closed.  Ordering is abandoned (never deadlocked on) once :meth:`close`
  begins tearing the pool down.
* **Pool awareness** — when intra-kernel threading is on
  (``REPRO_THREADS`` > 1, :mod:`repro.par`), each executing batch registers
  as one budget consumer, so its kernels fan across
  ``budget // active-batches`` threads: the two parallelism layers share
  one budget instead of multiplying.  :attr:`DispatchStats.summary`
  surfaces the pool occupancy (``pool``) and the autotuned thread verdicts
  (``autotune.thread_verdicts``).

Request policy — validation, admission, priorities and shedding, deadlines,
retry, the circuit breaker, drain and close — is the shared front-door core;
see :mod:`repro.serve.frontdoor`.  What is specific to this door:

* **Brownout degradation** — under brownout, ``degradable=True`` requests
  of a batch solve one precision tier lower on a cached sibling solver (the
  recovery ladder stays active there); opportunistic warm-ups and autotune
  measurement are suppressed.  ``stats.summary()["overload"]`` carries the
  controller state, the shed/degraded counters, and every transition.
* **Circuit breaker scope** — the breaker counts failures of this door's
  own setup builds (:class:`~repro.core.F3RSolver` construction on a
  worker).
* **Close** — ``close(wait=True)`` completes in-flight batches;
  ``close(wait=False)`` cancels batches not yet running and fails their
  futures with :class:`DispatcherClosed`.

The recovery-related counters (``escalations`` harvested from
:class:`~repro.core.SolveReport` results, ``retries``, ``breaker_trips``,
``deadline_misses``) appear under ``stats.summary()["recovery"]``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..backends import use_backend
from ..core import F3RConfig, F3RSolver, degraded_variant
from ..faults import maybe_delay, maybe_fail_worker
from ..operators import LinearOperator
from ..sparse import CSRMatrix
from .frontdoor import (
    AdmissionRefused,
    CircuitOpen,
    DeadlineExceeded,
    DispatcherClosed,
    FrontDoor,
    LoadShed,
    _Request,
    _resolve_once,
)
from .overload import resolve_controller

__all__ = [
    "AdmissionRefused",
    "BatchDispatcher",
    "CircuitOpen",
    "DeadlineExceeded",
    "DispatchStats",
    "DispatcherClosed",
    "LoadShed",
]


@dataclass
class DispatchStats:
    """Counters describing what the dispatcher has done so far.

    All mutation happens under the owning dispatcher's lock; the stats object
    itself is plain data.
    """

    requests: int = 0
    batches: int = 0
    batched_requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
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

    #: the owning dispatcher's BrownoutController (set post-init; None when
    #: the controller is disabled) — summary() folds its state in
    controller: object = None

    def summary(self) -> dict:
        """Dispatcher counters plus the plan-layer state a production
        deployment watches: the plan/autotune caches, the autotuned
        thread-count verdicts (``autotune.thread_verdicts``), the
        worker-pool budget/occupancy (``pool``), the robustness
        counters (``recovery``), and the cold-start picture
        (``cold_start``: warm-up completions plus the persistent artifact
        cache's hit/miss/saved-time counters)."""
        from ..cache import cold_start_stats
        from ..par import pool_stats
        from ..plans import autotune_stats, plan_cache_stats

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
        return {
            "requests": self.requests,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
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
            "autotune": autotune_stats(),
            "pool": pool_stats(),
            "cold_start": {
                "prewarms": self.prewarms,
                "opportunistic_warmups": self.opportunistic_warmups,
                "prewarm_ms": round(self.prewarm_ms, 3),
                "setup_ms_saved": round(artifacts["saved_ms"], 3),
                "artifacts": artifacts,
            },
        }


class BatchDispatcher(FrontDoor):
    """Groups solve requests by matrix and executes them as batched solves.

    Parameters
    ----------
    config:
        :class:`~repro.core.F3RConfig` used for every solver built by the
        dispatcher (default: the package default F3R configuration).
    preconditioner, nblocks, alpha:
        Forwarded to :class:`~repro.core.F3RSolver` when a new setup is built.
    max_batch:
        A pending group is dispatched as soon as it reaches this many
        requests; smaller groups wait for :meth:`flush`.
    cache_size:
        Number of ``(matrix fingerprint, config)`` solver setups kept in the
        LRU cache.
    max_workers:
        Worker threads executing batches.
    backend:
        Kernel backend the workers solve on (default: the process default).
    max_queue:
        Admission bound: maximum outstanding (accepted, not yet completed)
        requests; ``None`` (default) means unbounded.
    max_retries:
        How many times a request is re-queued after its batch dies before
        the error reaches its future.
    retry_backoff:
        Base delay (seconds) before a died batch is re-executed; grows
        linearly with the attempt count.
    breaker_threshold, breaker_cooldown:
        Consecutive setup failures for one operator fingerprint that open
        its circuit breaker, and the seconds before a probe attempt is
        allowed through again.
    priority_depths:
        Optional per-priority outstanding bounds, e.g. ``{0: 16}`` caps
        priority-0 work at 16 outstanding requests (typed :class:`LoadShed`
        beyond it) regardless of ``max_queue`` headroom.
    overload:
        The brownout controller: ``None`` (default) builds one unless
        ``REPRO_OVERLOAD=0``; ``False`` disables it (restoring the hard
        pre-priority admission wall exactly); ``True`` forces a default
        controller; a :class:`~repro.serve.overload.BrownoutController` or
        :class:`~repro.serve.overload.BrownoutConfig` is used as given.

    The admission, deadline, retry and breaker semantics of these knobs are
    the front-door core's (:mod:`repro.serve.frontdoor`).

    Usage::

        with BatchDispatcher(config, max_batch=8) as dispatcher:
            futures = [dispatcher.submit(A, b) for b in rhs_stream]
            dispatcher.flush()
            results = [f.result() for f in futures]
    """

    _door = "dispatcher"

    def __init__(self, config: F3RConfig | None = None, preconditioner="auto",
                 nblocks: int | None = None, alpha: float = 1.0,
                 max_batch: int = 8, cache_size: int = 8, max_workers: int = 2,
                 backend: str | None = None, max_queue: int | None = None,
                 max_retries: int = 1, retry_backoff: float = 0.05,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 priority_depths: dict[int, int] | None = None,
                 overload=None) -> None:
        super().__init__(
            max_batch=max_batch, max_queue=max_queue, max_retries=max_retries,
            retry_backoff=retry_backoff, breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown, priority_depths=priority_depths,
            controller=resolve_controller(overload))
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.config = config or F3RConfig()
        self.cache_size = int(cache_size)
        self.backend = backend
        self._precond_spec = (preconditioner, nblocks, alpha)
        self._max_workers = int(max_workers)
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="repro-serve")
        self._solvers: OrderedDict[tuple, F3RSolver] = OrderedDict()
        self._building: dict[tuple, Future] = {}
        # setup keys evicted from the solver LRU: returning traffic for one
        # of these triggers an opportunistic warm-up on an idle worker
        # (bounded insertion-ordered set)
        self._evicted: OrderedDict[tuple, None] = OrderedDict()
        # per-fingerprint execution ordering (see module docstring): tickets
        # are issued under self._lock at pool-submit time, so every
        # fingerprint's ticket order is consistent with the executor's FIFO
        # start order — a batch waiting for its turn always has its
        # predecessor already running (no deadlock possible)
        self._order_cond = threading.Condition()
        self._fp_next: dict[str, int] = {}
        self._fp_turn: dict[str, int] = {}
        self._order_abandoned = False
        self._busy_workers = 0
        self.stats = DispatchStats()
        self.stats.controller = self._overload

    # ------------------------------------------------------------------ #
    # Front-door hooks
    # ------------------------------------------------------------------ #
    def _occupancy_locked(self) -> float:
        return self._busy_workers / max(1, self._max_workers)

    def _admitted_locked(self, fp: str, matrix):
        # opportunistic warm-up: this fingerprint was evicted from the
        # solver LRU and is back — rebuild its setup on an idle worker while
        # the group waits to fill, instead of inside the batch (suppressed
        # while the brownout controller reports pressure)
        setup_key = (fp, self.config)
        controller = self._overload
        if (setup_key in self._evicted
                and setup_key not in self._solvers
                and setup_key not in self._building
                and self._busy_workers < self._max_workers
                and (controller is None
                     or not controller.suppress_background())):
            self._evicted.pop(setup_key, None)
            return lambda: self._pool.submit(self._warm_one, matrix,
                                             opportunistic=True)
        return None

    def _launch_batch(self, fp: str, matrix, requests: list[_Request]) -> None:
        with self._lock:
            with self._order_cond:
                ticket = self._fp_next.get(fp, 0)
                self._fp_next[fp] = ticket + 1
            future = self._pool.submit(self._execute, matrix, requests,
                                       fp, ticket)
            self._count_batch_locked(len(requests))

        def _cancelled(done: Future) -> None:
            # close(wait=False) cancelled the batch before it started
            if done.cancelled():
                self._fail_all(requests, DispatcherClosed(
                    "dispatcher closed before dispatch"))

        future.add_done_callback(_cancelled)

    def _quiesce(self, wait: bool) -> None:
        if not wait:
            # cancelled batches never advance their ordering ticket: release
            # any worker waiting for a turn that will never come
            with self._order_cond:
                self._order_abandoned = True
                self._order_cond.notify_all()
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    # ------------------------------------------------------------------ #
    def prewarm(self, operators, wait: bool = True,
                timeout: float | None = None) -> list[Future]:
        """Build the solver setup for each operator before traffic arrives.

        The expensive per-operator work — factorization, level schedules,
        plan compilation state — runs on the worker pool (populating the
        setup LRU, the plan cache and, with ``REPRO_ARTIFACTS``, the
        persistent artifact store), so the first real request finds a warm
        cache.  With ``wait=True`` (default) the call blocks until every
        build finishes and re-raises the first failure; with ``wait=False``
        it returns the build futures immediately.

        Completions are counted in ``stats.summary()["cold_start"]``.

        The returned futures are tracked: if :meth:`close` runs before a
        warm-up did (``close(wait=False)`` cancels queued pool work), the
        future fails with :class:`DispatcherClosed` instead of being left
        cancelled or forever pending.
        """
        futures = []
        for operator in operators:
            outer = self._track_warm()
            try:
                self._pool.submit(self._warm_task, operator, outer)
            except RuntimeError:
                # the executor shut down between the check and the submit
                _resolve_once(outer, exc=DispatcherClosed(
                    "dispatcher closed before warm-up"))
            futures.append(outer)
        if wait:
            for future in futures:
                future.result(timeout)
        return futures

    def _warm_task(self, operator, outer: Future) -> None:
        """Pool-side prewarm wrapper: relay the outcome onto the tracked
        future exactly once (close() may have failed it typed already)."""
        try:
            self._warm_one(operator)
        except BaseException as exc:   # noqa: BLE001 - relayed to the future
            _resolve_once(outer, exc=exc)
        else:
            _resolve_once(outer)

    def _warm_one(self, matrix, opportunistic: bool = False) -> None:
        """Worker-side warm-up: build (or revalidate) one operator's setup."""
        from ..par import pool_consumer

        start = time.monotonic()
        try:
            with self._lock:
                self._busy_workers += 1
            with pool_consumer():
                self._solver_for(matrix)
        except BaseException:   # noqa: BLE001 - breaker state already updated
            if not opportunistic:
                raise           # explicit prewarm(): surface via the future
        else:
            with self._lock:
                if opportunistic:
                    self.stats.opportunistic_warmups += 1
                else:
                    self.stats.prewarms += 1
                self.stats.prewarm_ms += (time.monotonic() - start) * 1e3
        finally:
            with self._lock:
                self._busy_workers -= 1

    def evict(self, fingerprint: str) -> bool:
        """Drop the cached setup for an operator fingerprint, so its next
        batch rebuilds it (a cache miss).  Returns whether one was cached."""
        with self._lock:
            keys = [key for key in self._solvers if key[0] == fingerprint]
            for key in keys:
                del self._solvers[key]
        return bool(keys)

    # ------------------------------------------------------------------ #
    def _solver_for(self, matrix: CSRMatrix | LinearOperator) -> F3RSolver:
        fp = matrix.fingerprint()
        key = (fp, self.config)
        self._breaker_check(fp)
        with self._lock:
            solver = self._solvers.get(key)
            if solver is not None:
                self._solvers.move_to_end(key)
                self.stats.cache_hits += 1
                return solver
            build = self._building.get(key)
            if build is None:
                build = self._building[key] = Future()
                is_builder = True
                self.stats.cache_misses += 1
            else:
                # another worker is already building this setup: wait for it
                # instead of duplicating the factorization
                is_builder = False
                self.stats.cache_hits += 1
        if not is_builder:
            return build.result()

        # build outside the lock (the factorization is the expensive part)
        preconditioner, nblocks, alpha = self._precond_spec
        try:
            solver = F3RSolver(matrix, preconditioner=preconditioner,
                               config=self.config, nblocks=nblocks, alpha=alpha)
        except BaseException as exc:   # noqa: BLE001 - relayed to waiters
            with self._lock:
                self._building.pop(key, None)
            self._breaker_record(fp, ok=False)
            build.set_exception(exc)
            raise
        with self._lock:
            self._solvers[key] = solver
            self._solvers.move_to_end(key)
            self._evicted.pop(key, None)
            while len(self._solvers) > self.cache_size:
                evicted_key, _ = self._solvers.popitem(last=False)
                self._evicted[evicted_key] = None
                while len(self._evicted) > 4 * self.cache_size:
                    self._evicted.popitem(last=False)
            self._building.pop(key, None)
        self._breaker_record(fp, ok=True)
        build.set_result(solver)
        return solver

    def _order_wait(self, fp: str, ticket: int) -> None:
        """Block until ``ticket`` is the next batch for ``fp`` (or ordering
        has been abandoned by a closing dispatcher)."""
        with self._order_cond:
            while (not self._order_abandoned and not self._closed
                   and self._fp_turn.get(fp, 0) < ticket):
                self._order_cond.wait(timeout=1.0)

    def _order_advance(self, fp: str, ticket: int) -> None:
        with self._order_cond:
            self._fp_turn[fp] = max(self._fp_turn.get(fp, 0), ticket + 1)
            if self._fp_turn[fp] >= self._fp_next.get(fp, 0):
                # every issued ticket consumed: drop the bookkeeping
                self._fp_turn.pop(fp, None)
                self._fp_next.pop(fp, None)
            self._order_cond.notify_all()

    def _execute(self, matrix, requests: list[_Request], fp: str,
                 ticket: int) -> None:
        self._order_wait(fp, ticket)
        try:
            self._execute_batch(matrix, requests)
        finally:
            self._order_advance(fp, ticket)

    def _execute_batch(self, matrix, requests: list[_Request]) -> None:
        from ..par import pool_consumer

        requests = self._split_expired(requests)
        if not requests:
            return
        try:
            with self._lock:
                self._busy_workers += 1
            maybe_delay("dispatcher.latency")
            maybe_fail_worker("dispatcher.worker")
            # one budget across both parallelism layers: each concurrently
            # executing batch registers as a consumer, so its intra-kernel
            # threads get budget // active-batches — the oversubscription
            # guard between inter-request workers and partitioned kernels
            with pool_consumer():
                solver = self._solver_for(matrix)
                # brownout degradation: degradable requests solve one
                # precision tier lower on a cached sibling (recovery ladder
                # active there, so stagnation re-escalates)
                degrade_to = None
                controller = self._overload
                if controller is not None and controller.should_degrade():
                    degrade_to = degraded_variant(self.config.variant)
                degraded = ([r for r in requests if r.degradable]
                            if degrade_to is not None else [])
                parts = []
                if len(degraded) < len(requests):
                    ids = set(map(id, degraded))
                    parts.append(([r for r in requests if id(r) not in ids],
                                  solver))
                if degraded:
                    parts.append((degraded, solver.degraded_sibling(degrade_to)))
                    with self._lock:
                        self.stats.degraded += len(degraded)
                batches = []
                for part, part_solver in parts:
                    rhs_block = np.stack([req.rhs for req in part], axis=1)
                    if self.backend is not None:
                        with use_backend(self.backend):
                            batches.append((part, part_solver.solve_batch(rhs_block)))
                    else:
                        batches.append((part, part_solver.solve_batch(rhs_block)))
        except BaseException as exc:   # noqa: BLE001 - retried or propagated
            self._retry_or_fail(matrix.fingerprint(), matrix, requests, exc)
            return
        finally:
            with self._lock:
                self._busy_workers -= 1
        for part, batch in batches:
            for req, result in zip(part, batch.results):
                if result.recovery is not None:
                    with self._lock:
                        self.stats.escalations += result.recovery.escalations
                self._finish(req, result=result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BatchDispatcher(max_batch={self.max_batch}, "
                f"cached_setups={len(self._solvers)}, stats={self.stats.summary()})")
