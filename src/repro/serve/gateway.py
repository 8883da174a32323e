"""Sharded serving gateway: the front door of the process tier.

:class:`ShardedGateway` is a :class:`~repro.serve.frontdoor.FrontDoor` — the
request policy (validation, admission and shedding, deadlines, retry, the
circuit breaker, drain and close) is the shared core's — whose transport is
``REPRO_PROCS`` worker *processes* instead of threads, so the Python-level
solve path (level scheduling, plan dispatch, the FGMRES loop) is no longer
serialized on one GIL.

Architecture::

    submit(op, rhs) ──► per-fingerprint pending groups   (gateway thread)
                             │ max_batch / flush()
                             ▼
                     rendezvous route fp → shard         (stable hashing)
                             │ one queue hop per batch
                             ▼
        worker process: attach shm operator ▸ warm from REPRO_ARTIFACTS
                        ▸ F3RSolver.solve_batch ▸ ship SolveResults back

* **Routing** — each operator fingerprint maps to one shard via
  highest-random-weight (rendezvous) hashing: stable for any worker count,
  deterministic across runs and processes (content hashes, not
  ``hash()``).  Pinning a fingerprint to one shard is what preserves the
  in-process dispatcher's semantics exactly: the shard sees the same
  batch stream, in the same order, against one cached solver — so results
  are bit-identical to ``REPRO_PROCS=1`` (the adaptive Richardson weights
  evolve identically).
* **Zero-copy operators** — on a fingerprint's first dispatch the gateway
  publishes its storage into a :class:`~repro.par.shm.ShmRegistry` segment;
  only the descriptor crosses the queue, once per (worker, fingerprint).
  Operators with no shared-memory form (composites) fall back to a one-time
  pickled setup.
* **Default 1 = in-process** — with a resolved process count of one the
  gateway *is* a :class:`BatchDispatcher` (same objects, same threads); the
  process tier spins up only when ``REPRO_PROCS`` (or the ``procs=``
  argument) asks for more.
* **Failure model** — a worker death (real or injected via ``kill_rate``
  in :mod:`repro.faults`) fails the in-flight batches with
  :class:`~repro.par.procpool.WorkerDied`; the gateway respawns the slot
  and the core's retry path re-dispatches surviving requests.  A worker
  that is alive but silent (wedged; injected via ``hang_rate``) is killed
  by the pool's watchdog (:class:`~repro.par.procpool.WorkerHung`, a
  ``WorkerDied`` subtype) and handled the same way.  Worker-side *setup*
  failures feed the core's circuit breaker; a ``stale`` miss (the batch
  carrying the setup died first) re-ships the setup without charging it.
* **Overload** — brownout degradation happens at batch granularity: the
  degradable requests of a batch split into their own batch for the same
  shard, with the degrade flag riding the queue hop.  Occupancy for the
  brownout controller is in-flight batches over the process count.
  Request deadlines are enforced a second time *inside* the worker
  (wall-clock absolutes cross the process boundary; a batch that sat in a
  shard queue past its deadlines returns typed
  :class:`~repro.serve.dispatcher.DeadlineExceeded` failures instead of
  burning solve time).
* **Stats** — ``stats.summary()`` gains a ``procs`` section (process
  count, per-shard queue depth, shm registry bytes, merged worker counters
  including warm-from-artifact hits) and folds worker-side recovery
  escalations into ``recovery.escalations``.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from concurrent.futures import Future, wait as wait_futures

import numpy as np

from ..core import F3RConfig, degraded_variant
from ..par.procpool import (
    ExpiredRequest,
    ProcPool,
    WorkerDied,
    WorkerError,
    WorkerInit,
    resolve_procs,
)
from ..par.shm import ShmRegistry, operator_payload
from .dispatcher import BatchDispatcher, DispatchStats
from .frontdoor import FrontDoor, _Request, _resolve_once
from .overload import resolve_controller

__all__ = ["GatewayStats", "ShardedGateway", "rank_members",
           "route_fingerprint"]



def rank_members(fingerprint: str, names) -> list:
    """Rendezvous-rank ``names`` for a fingerprint, best first.

    Highest random weight over ``blake2b(fp | name)``: deterministic across
    processes and runs, minimally disruptive when membership changes (only
    the moved fingerprints re-route), and the ranking *tail* is the natural
    failover/hedge order — when the primary dies, the fingerprint's traffic
    moves to the second-ranked member, exactly where a fresh rendezvous over
    the survivors would place it.  Ties keep input order (stable sort).
    """
    names = list(names)
    return sorted(
        names,
        key=lambda name: hashlib.blake2b(f"{fingerprint}|{name}".encode(),
                                         digest_size=8).digest(),
        reverse=True)


def route_fingerprint(fingerprint: str, nshards: int) -> int:
    """Rendezvous-hash a fingerprint onto a shard in ``[0, nshards)``.

    The integer-shard special case of :func:`rank_members` (shard ``i``
    participates under the name ``str(i)``).
    """
    if nshards <= 1:
        return 0
    return int(rank_members(fingerprint, [str(s) for s in range(nshards)])[0])


class GatewayStats(DispatchStats):
    """Dispatcher counters plus the gateway's ``procs`` section.

    ``summary()`` merges the worker processes' latest shipped snapshots:
    their recovery escalations fold into ``recovery.escalations`` and their
    shm/warm-from-artifact counters appear under ``procs.workers``.
    """

    def __init__(self, gateway: "ShardedGateway") -> None:
        super().__init__()
        self._gateway = gateway

    def summary(self) -> dict:
        base = super().summary()
        return self._gateway._merge_summary(base)


class ShardedGateway(FrontDoor):
    """Process-sharded drop-in for :class:`BatchDispatcher`.

    Accepts the dispatcher's serving parameters plus ``procs`` (an int,
    ``"auto"``, or ``None`` = the ``REPRO_PROCS`` configuration),
    ``max_published`` (the shm registry's LRU bound) and the watchdog knobs
    ``hang_timeout`` / ``heartbeat_interval`` (forwarded to
    :class:`~repro.par.procpool.ProcPool`).  The policy knobs mean what the
    front-door core (:mod:`repro.serve.frontdoor`) says they mean.  With a
    resolved count of 1 every call delegates to an internal
    :class:`BatchDispatcher` — identical behavior, zero new processes.

    Usage::

        with ShardedGateway(config, procs="auto", max_batch=8) as gateway:
            futures = [gateway.submit(A, b) for b in rhs_stream]
            gateway.flush()
            results = [f.result() for f in futures]
    """

    _door = "gateway"

    def __init__(self, config: F3RConfig | None = None, preconditioner="auto",
                 nblocks: int | None = None, alpha: float = 1.0,
                 procs: int | str | None = None, max_batch: int = 8,
                 max_workers: int = 2, cache_size: int = 8,
                 backend: str | None = None, max_queue: int | None = None,
                 max_retries: int = 1, retry_backoff: float = 0.05,
                 breaker_threshold: int = 3, breaker_cooldown: float = 30.0,
                 max_published: int = 64,
                 priority_depths: dict[int, int] | None = None,
                 overload=None, hang_timeout: float | None = 30.0,
                 heartbeat_interval: float | None = None) -> None:
        self.config = config or F3RConfig()
        self.nprocs = resolve_procs(procs)
        in_process = self.nprocs <= 1
        super().__init__(
            max_batch=max_batch, max_queue=max_queue, max_retries=max_retries,
            retry_backoff=retry_backoff, breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown, priority_depths=priority_depths,
            controller=None if in_process else resolve_controller(overload))
        self._precond_spec = (preconditioner, nblocks, alpha)
        self.backend = backend
        self.registry = None
        self.pool = None
        self._dispatcher = None

        if in_process:
            self._dispatcher = BatchDispatcher(
                self.config, preconditioner=preconditioner, nblocks=nblocks,
                alpha=alpha, max_batch=max_batch, cache_size=cache_size,
                max_workers=max_workers, backend=backend, max_queue=max_queue,
                max_retries=max_retries, retry_backoff=retry_backoff,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
                priority_depths=priority_depths, overload=overload)
            # graft the gateway stats view on so stats.summary() carries the
            # procs section in both modes (re-attaching the controller the
            # dispatcher wired onto the stats object it just replaced)
            self._dispatcher.stats = GatewayStats(self)
            self._dispatcher.stats.controller = self._dispatcher._overload
            self.stats = self._dispatcher.stats
            # the public surface is the dispatcher's own (solve_many and the
            # context manager reach it through these)
            for name in ("submit", "flush", "drain", "prewarm", "close"):
                setattr(self, name, getattr(self._dispatcher, name))
            return

        self.stats = GatewayStats(self)
        self.stats.controller = self._overload
        self.registry = ShmRegistry(max_published=max_published)
        self.pool = ProcPool(self.nprocs, self._worker_init(),
                             hang_timeout=hang_timeout,
                             heartbeat_interval=heartbeat_interval)
        self._inflight_batches = 0

    def _worker_init(self) -> WorkerInit:
        """Snapshot the parent's effective execution settings for workers.

        Spawn inherits the environment; programmatic overrides (artifact
        dir, thread budget, an installed fault plan) are shipped explicitly.
        """
        from .. import faults
        from ..cache import artifacts_dir
        from ..par import configured_threads

        preconditioner, nblocks, alpha = self._precond_spec
        plan = faults.active_plan()
        return WorkerInit(
            config=self.config, preconditioner=preconditioner,
            nblocks=nblocks, alpha=alpha, backend=self.backend,
            artifacts_dir=artifacts_dir() or "", threads=configured_threads(),
            fault_spec=plan.spec() if plan is not None else None)

    # ------------------------------------------------------------------ #
    def prewarm(self, operators, wait: bool = True,
                timeout: float | None = None) -> list[Future]:
        """Build solver setups on their routed shards before traffic arrives.

        Each operator's shard factorizes — or warms from ``REPRO_ARTIFACTS``
        — ahead of the first batch; completions count in
        ``stats.summary()["cold_start"]``.
        """
        futures = []
        for operator in operators:
            fp = operator.fingerprint()
            shard = route_fingerprint(fp, self.nprocs)
            self.pool.ensure_worker(shard)
            start = time.monotonic()
            # callers get a tracked wrapper, not the pool future: if close()
            # wins the race the wrapper fails typed (DispatcherClosed)
            # instead of surfacing the pool's generic shutdown error
            outer = self._track_warm()
            try:
                inner = self.pool.submit_warm(
                    shard, fp,
                    lambda op=operator, f=fp: self._setup_payload(op, f))
            except BaseException as exc:   # noqa: BLE001 - relayed typed
                _resolve_once(outer, exc=exc)
                futures.append(outer)
                continue

            def _relay(done, begun=start, tracked=outer):
                exc = done.exception()
                if exc is None:
                    with self._lock:
                        self.stats.prewarms += 1
                        self.stats.prewarm_ms += (time.monotonic() - begun) * 1e3
                    _resolve_once(tracked, result=done.result())
                else:
                    _resolve_once(tracked, exc=exc)

            inner.add_done_callback(_relay)
            futures.append(outer)
        if wait:
            for future in futures:
                future.result(timeout)
        return futures

    def _setup_payload(self, operator, fp: str) -> dict:
        """First-contact payload for a (worker, fingerprint): publish the
        operator's storage into the registry and hand out the descriptor,
        or fall back to a one-time pickle for non-publishable families."""
        payload = operator_payload(operator)
        if payload is not None:
            arrays, meta = payload
            return {"descriptor": self.registry.publish(fp, arrays, meta)}
        return {"pickle": pickle.dumps(operator)}

    # ------------------------------------------------------------------ #
    # Front-door hooks
    # ------------------------------------------------------------------ #
    def _occupancy_locked(self) -> float:
        return min(1.0, self._inflight_batches / max(1, self.nprocs))

    def _launch_batch(self, fp: str, operator, requests: list[_Request]) -> None:
        # brownout degradation happens at batch granularity here: the
        # degrade decision rides the queue hop as a flag, so degradable
        # requests split into their own batch for the same shard
        controller = self._overload
        degrade_to = (degraded_variant(self.config.variant)
                      if controller is not None and controller.should_degrade()
                      else None)
        parts: list[tuple[list[_Request], bool]] = [(requests, False)]
        if degrade_to is not None:
            degraded = [r for r in requests if r.degradable]
            if degraded:
                ids = set(map(id, degraded))
                normal = [r for r in requests if id(r) not in ids]
                parts = ([(normal, False)] if normal else []) + [(degraded, True)]
                with self._lock:
                    self.stats.degraded += len(degraded)
        for part, degrade in parts:
            # each part fails (and retries) on its own
            try:
                self._launch_part(fp, operator, part, degrade)
            except BaseException as exc:   # noqa: BLE001 - retry policy
                self._retry_or_fail(fp, operator, part, exc)

    def _launch_part(self, fp: str, operator, requests: list[_Request],
                     degrade: bool) -> None:
        self._breaker_check(fp)
        shard = route_fingerprint(fp, self.nprocs)
        self.pool.ensure_worker(shard)
        rhs_block = np.stack([req.rhs for req in requests], axis=1)
        deadlines = None
        if any(req.deadline is not None for req in requests):
            # re-express monotonic deadlines as wall-clock absolutes:
            # monotonic clocks are not comparable across processes
            offset = time.time() - time.monotonic()
            deadlines = [None if req.deadline is None
                         else req.deadline + offset for req in requests]
        batch_future = self.pool.submit_batch(
            shard, fp, rhs_block,
            lambda: self._setup_payload(operator, fp),
            deadlines=deadlines, degrade=degrade)
        with self._lock:
            self._inflight_batches += 1
            self._count_batch_locked(len(requests))
        batch_future.add_done_callback(
            lambda done: self._on_batch_done(fp, operator, requests, done))

    def _on_batch_done(self, fp: str, operator, requests: list[_Request],
                       batch_future: Future) -> None:
        """Collector-thread callback: distribute results or route failures."""
        with self._lock:
            self._inflight_batches -= 1
        exc = batch_future.exception()
        if exc is not None:
            if isinstance(exc, WorkerDied):
                # respawn the slot before the retry lands on it
                self.pool.ensure_worker(exc.worker_id)
            if isinstance(exc, WorkerError) and exc.kind == "stale":
                # the setup-carrying batch died before the worker could build
                # the solver: reship setup on the retry, no breaker charge
                self.pool.forget(fp)
            elif isinstance(exc, WorkerError) and exc.kind == "setup":
                self._breaker_record(fp, ok=False)
            self._retry_or_fail(fp, operator, requests, exc)
            return
        results, _snapshot = batch_future.result()
        self._breaker_record(fp, ok=True)
        for req, result in zip(requests, results):
            if isinstance(result, ExpiredRequest):
                # the worker refused to solve a request whose deadline had
                # already passed when it dequeued the batch
                self._expire(req, f"deadline passed {result.overshoot_s:.3f}s "
                                  f"before the worker dequeued the batch")
                continue
            if result.recovery is not None:
                with self._lock:
                    self.stats.escalations += result.recovery.escalations
            self._finish(req, result=result)

    def _quiesce(self, wait: bool) -> None:
        if not wait:
            return
        # in-flight batches and warm-ups complete before the pool goes down
        deadline = time.monotonic() + 60.0
        with self._cond:
            self._cond.wait_for(lambda: self._outstanding <= 0, timeout=60.0)
            warm_pending = list(self._warm_pending)
        wait_futures(warm_pending, timeout=max(0.0, deadline - time.monotonic()))

    def _teardown(self) -> None:
        self.pool.close()
        self.registry.close()

    # ------------------------------------------------------------------ #
    # Eviction and stats
    # ------------------------------------------------------------------ #
    def evict(self, fingerprint: str) -> bool:
        """Evict one operator tier-wide: unlink its shm segment now and tell
        every attached worker to drop its solver, plans, and mapping.
        Returns whether a publication existed."""
        if self._dispatcher is not None:
            return False
        descriptor = self.registry.evict(fingerprint)
        self.pool.evict(fingerprint)
        return descriptor is not None

    def _merge_summary(self, base: dict) -> dict:
        """Fold worker snapshots into the dispatcher-shaped summary."""
        if self._dispatcher is not None or self.pool is None:
            base["procs"] = {"procs": 1, "mode": "in-process"}
            return base
        snapshots = dict(self.pool.stats_snapshots)
        warm: dict[str, int] = {}
        workers = {"batches": 0, "requests": 0, "shm_attaches": 0,
                   "shm_bytes": 0, "pickled_setups": 0, "plan_cache": 0,
                   "expired": 0, "degraded_batches": 0,
                   "artifact_saved_ms": 0.0}
        escalations = 0
        for snap in snapshots.values():
            for field in ("batches", "requests", "shm_attaches", "shm_bytes",
                          "pickled_setups", "plan_cache", "expired",
                          "degraded_batches"):
                workers[field] += snap.get(field, 0)
            workers["artifact_saved_ms"] += snap.get("artifact_saved_ms", 0.0)
            escalations += snap.get("escalations", 0)
            for kind, hits in snap.get("warm_from_artifacts", {}).items():
                warm[kind] = warm.get(kind, 0) + hits
        workers["warm_from_artifacts"] = warm
        workers["artifact_saved_ms"] = round(workers["artifact_saved_ms"], 3)
        base["recovery"]["escalations"] += escalations
        depths = self.pool.queue_depths()
        base["procs"] = {
            "procs": self.nprocs,
            "mode": "process-pool",
            "occupancy": {
                "in_flight_batches": sum(depths.values()),
                "busy_shards": sum(1 for d in depths.values() if d > 0),
            },
            "queue_depth": depths,
            "shm": self.registry.stats(),
            "workers": workers,
            "worker_deaths": self.pool.deaths,
            "worker_hangs": self.pool.hangs,
        }
        return base
