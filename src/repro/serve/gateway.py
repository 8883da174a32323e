"""The process tier: worker processes as members of the ring.

``ShardedGateway(procs=N)`` with ``N > 1`` is a
:class:`~repro.serve.cluster.ClusterGateway` whose ring holds one process
member per :class:`~repro.par.procpool.ProcPool` worker slot, named ``"0"``
… ``"N-1"``, so :func:`~repro.serve.cluster.rank_members` places every
fingerprint on the slot :func:`route_fingerprint` names.  The ring does the
routing, launch, result slots, retry, prewarm and close; the gateway gives
it a brownout controller (priority admission, shedding and degradation work
as on the dispatcher) and adds the ``procs`` stats section.  With ``N == 1``
the gateway *is* a :class:`~repro.serve.dispatcher.BatchDispatcher` — same
objects, same threads, no process.

What a process member adds to the member contract:

* **Setup payloads** — a (worker, fingerprint)'s first batch publishes the
  operator's storage into a :class:`~repro.par.shm.ShmRegistry` segment and
  ships only the descriptor; operators with no shared-memory form ship as a
  one-time pickle.
* **Respawn** — a slot whose worker died
  (:class:`~repro.par.procpool.WorkerDied`, or the watchdog's
  :class:`~repro.par.procpool.WorkerHung`) is respawned and stays healthy,
  so the ring's retry lands on the new process, never on another slot.
* **Stale and failed setups** — a worker that never received a
  fingerprint's setup replies ``stale``: the member forgets the fingerprint
  and reships.  A setup that fails to build comes back as final ``"setup"``
  slots, which charge the ring's circuit breaker.
* **Brownout** — under the ring's controller the worker solves the
  degradable columns of a batch as their own batch, one precision tier
  lower; without a controller nothing degrades.

Pinning each fingerprint to one worker serializes its batches against one
cached solver, which keeps results bit-identical for every ``REPRO_PROCS``.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future

import numpy as np

from ..core import F3RConfig, degraded_variant
from ..par.procpool import (
    ProcPool,
    WorkerDied,
    WorkerError,
    WorkerInit,
    resolve_procs,
)
from ..par.shm import ShmRegistry, operator_payload
from .cluster import ClusterConfig, ClusterGateway, ClusterStats, rank_members
from .dispatcher import BatchDispatcher, DispatchStats
from .frontdoor import FrontDoor, _resolve_once
from .overload import resolve_controller
from .remote import RemoteError

__all__ = ["GatewayStats", "ShardedGateway", "route_fingerprint"]

#: worker-snapshot counters summed into ``procs.workers``
_WORKER_COUNTERS = ("batches", "requests", "shm_attaches", "shm_bytes",
                    "pickled_setups", "plan_cache", "expired",
                    "degraded_batches", "artifact_saved_ms")


def route_fingerprint(fingerprint: str, nshards: int) -> int:
    """Rendezvous-hash a fingerprint onto a shard in ``[0, nshards)``.

    The integer-shard special case of :func:`rank_members`: shard ``i`` is
    the process member named ``str(i)``.
    """
    if nshards <= 1:
        return 0
    return int(rank_members(fingerprint, [str(s) for s in range(nshards)])[0])


def _worker_init(config, preconditioner, nblocks, alpha,
                 backend) -> WorkerInit:
    """Snapshot the parent's effective execution settings for workers.

    Spawn inherits the environment; programmatic overrides (artifact dir,
    thread budget, an installed fault plan) are shipped explicitly.
    """
    from .. import faults
    from ..cache import artifacts_dir
    from ..par import configured_threads

    plan = faults.active_plan()
    return WorkerInit(
        config=config, preconditioner=preconditioner, nblocks=nblocks,
        alpha=alpha, backend=backend, artifacts_dir=artifacts_dir() or "",
        threads=configured_threads(),
        fault_spec=plan.spec() if plan is not None else None)


class _ProcessMember:
    """One worker slot of the gateway's pool behind the member contract."""

    def __init__(self, slot: int, gateway: "ShardedGateway") -> None:
        self.name = str(slot)
        self.slot = slot
        self._gateway = gateway
        self._closed = False

    @property
    def healthy(self) -> bool:
        return not self._closed        # a dead worker is respawned, not skipped

    def _payload(self, fp: str, operator) -> dict:
        payload = operator_payload(operator)
        if payload is None:
            return {"pickle": pickle.dumps(operator)}
        arrays, meta = payload
        return {"descriptor": self._gateway.registry.publish(fp, arrays, meta)}

    def _run(self, fp: str, setup_factory, send, ncols: int | None = None):
        """One pool submission, ``send(payload_factory)``, with the slot's
        recovery: respawn a dead worker, reship a ``stale`` setup, and for a
        batch of ``ncols`` columns turn a setup failure into final slots."""
        pool = self._gateway.pool
        outer: Future = Future()

        def attempt() -> None:
            pool.ensure_worker(self.slot)
            send(lambda: self._payload(fp, setup_factory())
                 ).add_done_callback(relay)

        def relay(inner: Future) -> None:
            exc = inner.exception()
            if isinstance(exc, WorkerDied):
                pool.ensure_worker(self.slot)     # before the ring's retry
            elif isinstance(exc, WorkerError) and exc.kind in ("stale",
                                                                "setup"):
                pool.forget(fp)                   # the next contact reships
                if exc.kind == "stale":
                    try:
                        attempt()
                    except Exception as again:   # noqa: BLE001 - relayed
                        _resolve_once(outer, exc=again)
                    return
                if ncols is not None:
                    slot = RemoteError("setup", exc.type_name, exc.message)
                    _resolve_once(outer, result=([slot] * ncols, {}))
                    return
            if exc is None:
                _resolve_once(outer, result=inner.result())
            else:
                _resolve_once(outer, exc=exc)

        attempt()
        return outer

    def submit_batch(self, fingerprint: str, rhs_block: np.ndarray,
                     setup_factory, deadlines=None, degrade=None) -> Future:
        gateway = self._gateway
        controller = gateway._overload
        if (degrade is None or controller is None
                or not controller.should_degrade()
                or degraded_variant(gateway.config.variant) is None):
            degrade = None              # not in brownout: full precision
        else:
            with gateway._lock:
                gateway.stats.degraded += sum(map(bool, degrade))
        pool = gateway.pool
        return self._run(
            fingerprint, setup_factory,
            lambda setup: pool.submit_batch(self.slot, fingerprint, rhs_block,
                                            setup, deadlines=deadlines,
                                            degrade=degrade),
            ncols=rhs_block.shape[1])

    def submit_warm(self, fingerprint: str, setup_factory) -> Future:
        pool = self._gateway.pool
        return self._run(fingerprint, setup_factory,
                         lambda setup: pool.submit_warm(self.slot, fingerprint,
                                                        setup))

    def evict(self, fingerprint: str) -> bool:
        """Unlink the fingerprint's segment and tell every attached worker to
        drop its solver, plans and mapping (pool and registry are shared, so
        one member's call covers the tier)."""
        descriptor = self._gateway.registry.evict(fingerprint)
        self._gateway.pool.evict(fingerprint)
        return descriptor is not None

    def rtt_percentile(self, q: float, min_samples: int = 1) -> None:
        return None                       # never hedged: placement is pinned

    def stats(self) -> dict:
        pool = self._gateway.pool
        return {"name": self.name, "kind": "process",
                "state": "closed" if self._closed else "up",
                "server": dict(pool.stats_snapshots.get(self.slot, {}))}

    def close(self) -> None:
        self._closed = True               # the gateway closes the shared pool


class GatewayStats(ClusterStats):
    """Ring counters plus the process tier's ``procs`` section: process
    count, per-slot queue depth, in-flight occupancy, shm registry bytes,
    merged worker counters (including warm-from-artifact hits), deaths and
    hangs.  In-process mode reports ``{"procs": 1, "mode": "in-process"}``
    next to the dispatcher's own counters."""

    def summary(self) -> dict:
        gateway = self.members_source
        pool = gateway.pool
        if pool is None:
            base = DispatchStats.summary(self)
            base["procs"] = {"procs": 1, "mode": "in-process"}
            return base
        base = super().summary()
        workers = dict.fromkeys(_WORKER_COUNTERS, 0)
        warm: dict[str, int] = {}
        for snap in list(pool.stats_snapshots.values()):
            for key in _WORKER_COUNTERS:
                workers[key] += snap.get(key, 0)
            for kind, hits in snap.get("warm_from_artifacts", {}).items():
                warm[kind] = warm.get(kind, 0) + hits
        workers["artifact_saved_ms"] = round(
            float(workers["artifact_saved_ms"]), 3)
        workers["warm_from_artifacts"] = warm
        depths = pool.queue_depths()
        base["procs"] = {
            "procs": len(pool),
            "mode": "process-pool",
            "occupancy": {
                "in_flight_batches": sum(depths.values()),
                "busy_shards": sum(1 for d in depths.values() if d > 0),
            },
            "queue_depth": depths,
            "shm": gateway.registry.stats(),
            "workers": workers,
            "worker_deaths": pool.deaths,
            "worker_hangs": pool.hangs,
        }
        return base


class ShardedGateway(ClusterGateway):
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
    _stats_type = GatewayStats
    #: the full front-door surface: priorities matter here, because this
    #: ring carries a brownout controller
    submit = FrontDoor.submit

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
        config = config or F3RConfig()
        self.nprocs = resolve_procs(procs)
        self.pool = self.registry = self._dispatcher = None
        if self.nprocs <= 1:
            self.config = config
            self._members = {}
            self._dispatcher = BatchDispatcher(
                config, preconditioner=preconditioner, nblocks=nblocks,
                alpha=alpha, max_batch=max_batch, cache_size=cache_size,
                max_workers=max_workers, backend=backend, max_queue=max_queue,
                max_retries=max_retries, retry_backoff=retry_backoff,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
                priority_depths=priority_depths, overload=overload)
            # the gateway stats view carries the procs section in both modes
            self.stats = self._dispatcher.stats = GatewayStats(
                controller=self._dispatcher._overload, members_source=self)
            for name in ("submit", "flush", "drain", "prewarm", "evict",
                         "close"):
                setattr(self, name, getattr(self._dispatcher, name))
            return
        self._init_ring(
            config, ClusterConfig(
                max_batch=max_batch, max_queue=max_queue,
                max_retries=max_retries, retry_backoff=retry_backoff,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown),
            priority_depths=priority_depths,
            controller=resolve_controller(overload))
        self.registry = ShmRegistry(max_published=max_published)
        self.pool = ProcPool(
            self.nprocs,
            _worker_init(config, preconditioner, nblocks, alpha, backend),
            hang_timeout=hang_timeout, heartbeat_interval=heartbeat_interval)
        for slot in range(self.nprocs):
            self._members[str(slot)] = _ProcessMember(slot, self)

    def _occupancy_locked(self) -> float:
        return min(1.0, sum(self.pool.queue_depths().values()) / self.nprocs)

    def _teardown(self) -> None:
        super()._teardown()
        self.pool.close()
        self.registry.close()
