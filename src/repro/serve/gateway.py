"""The process tier: worker processes as members of the ring.

``ShardedGateway(procs=N)`` is a :class:`~repro.serve.cluster.ClusterGateway`
with a brownout controller.  With ``N > 1`` its ring holds one process
member per :class:`~repro.par.procpool.ProcPool` worker slot, named ``"0"``
… ``"N-1"``, so :func:`~repro.serve.cluster.rank_members` places every
fingerprint on the slot :func:`route_fingerprint` names; with ``N == 1`` it
holds one thread member, exactly like a
:class:`~repro.serve.dispatcher.BatchDispatcher`.  The gateway adds the
``procs`` stats section.  What a process member adds to the member
contract:

* **Setup payloads** — a (worker, fingerprint)'s first batch publishes the
  operator's storage into a :class:`~repro.par.shm.ShmRegistry` segment and
  ships only the descriptor; operators with no shared-memory form ship as a
  one-time pickle.
* **Respawn** — a slot whose worker died
  (:class:`~repro.par.procpool.WorkerDied`, or the watchdog's
  :class:`~repro.par.procpool.WorkerHung`) is respawned and stays healthy,
  so the ring's retry lands on the new process, never on another slot.
* **Stale setups** — a worker that no longer holds a fingerprint's setup
  replies ``stale``: the member forgets the fingerprint and reships.

Pinning each fingerprint to one worker serializes its batches against one
cached solver, which keeps results bit-identical for every ``REPRO_PROCS``.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future

import numpy as np

from ..core import F3RConfig
from ..par.procpool import (
    ProcPool,
    WorkerDied,
    WorkerError,
    WorkerInit,
    resolve_procs,
)
from ..par.shm import ShmRegistry, operator_payload
from .cluster import ClusterConfig, ClusterGateway, ClusterStats, rank_members
from .frontdoor import _resolve_once

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


def _worker_init(config, preconditioner, nblocks, alpha, backend,
                 cache_size) -> WorkerInit:
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
        fault_spec=plan.spec() if plan is not None else None,
        cache_size=cache_size)


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

    def _run(self, fp: str, setup_factory, send) -> Future:
        """One pool submission, ``send(payload_factory)``, with the slot's
        recovery: respawn a dead worker, reship a ``stale`` setup."""
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
            elif isinstance(exc, WorkerError) and exc.kind == "stale":
                pool.forget(fp)                   # the next contact reships
                try:
                    attempt()
                except Exception as again:   # noqa: BLE001 - relayed
                    _resolve_once(outer, exc=again)
                return
            if exc is None:
                _resolve_once(outer, result=inner.result())
            else:
                _resolve_once(outer, exc=exc)

        attempt()
        return outer

    def submit_batch(self, fingerprint: str, rhs_block: np.ndarray,
                     setup_factory, deadlines=None, degrade=None) -> Future:
        pool = self._gateway.pool
        return self._run(
            fingerprint, setup_factory,
            lambda setup: pool.submit_batch(self.slot, fingerprint, rhs_block,
                                            setup, deadlines=deadlines,
                                            degrade=degrade))

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
    hangs; ``{"procs": 1, "mode": "in-process"}`` at ``procs=1``."""

    def summary(self) -> dict:
        gateway = self.members_source
        pool = gateway.pool
        base = super().summary()
        if pool is None:
            base["procs"] = {"procs": 1, "mode": "in-process"}
            return base
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
    resolved count of 1 the ring holds one thread member, as a
    :class:`BatchDispatcher` does: zero new processes.

    Usage::

        with ShardedGateway(config, procs="auto", max_batch=8) as gateway:
            futures = [gateway.submit(A, b) for b in rhs_stream]
            gateway.flush()
            results = [f.result() for f in futures]
    """

    _door = "gateway"
    _stats_type = GatewayStats

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
        self.nprocs = resolve_procs(procs)
        self.pool = self.registry = None
        self._init_ring(config, ClusterConfig(
            max_batch=max_batch, max_queue=max_queue, max_retries=max_retries,
            retry_backoff=retry_backoff, breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown), priority_depths, overload)
        if self.nprocs <= 1:
            self._add_thread_member("local", preconditioner, nblocks, alpha,
                                    backend, cache_size, max_workers)
            return
        self.registry = ShmRegistry(max_published=max_published)
        self.pool = ProcPool(
            self.nprocs,
            _worker_init(self.config, preconditioner, nblocks, alpha, backend,
                         cache_size),
            hang_timeout=hang_timeout, heartbeat_interval=heartbeat_interval)
        for slot in range(self.nprocs):
            self._members[str(slot)] = _ProcessMember(slot, self)

    def _occupancy_locked(self) -> float:
        if self.pool is None:
            return super()._occupancy_locked()
        return min(1.0, sum(self.pool.queue_depths().values()) / self.nprocs)

    def _teardown(self) -> None:
        super()._teardown()
        if self.pool is not None:
            self.pool.close()
            self.registry.close()
