"""Serving layer: request batching, preconditioner caching, worker execution.

:class:`BatchDispatcher` is the entry point for high-throughput deployments —
it groups incoming ``(matrix, rhs)`` requests by matrix fingerprint, caches
the per-matrix solver setups in an LRU, and executes each group as one
batched multi-RHS solve on a thread pool.  See the README section "Batched
solves & the dispatcher".

:class:`ClusterGateway` routes the same traffic over a *ring* of members by
rendezvous hashing, with hedged dispatch and failover
(:mod:`repro.serve.cluster`).  A member is a thread (an in-process
dispatcher), a process (one ``REPRO_PROCS`` worker: zero-copy
shared-memory operators, warm-from-artifact setup) or a :class:`RemoteShard`
speaking the length-prefixed batch protocol to a :class:`ShardServer`
elsewhere (:mod:`repro.serve.remote`).  :class:`ShardedGateway` builds the
process ring, bit-identical for every process count.  See the README
section "The serving ring: thread, process and remote members".

Both are :class:`~repro.serve.frontdoor.FrontDoor` subclasses: the request
policy (validation, admission and shedding, deadlines, retry, the circuit
breaker, drain and close) is written once in :mod:`repro.serve.frontdoor`,
and each door adds only its transport.

The front doors share the overload-resilience layer
(:mod:`repro.serve.overload`): priority admission with load shedding
(:class:`LoadShed`), a hysteresis :class:`BrownoutController` that degrades
service progressively under pressure, and worker watchdogs in the process
tier.  :func:`render_metrics` exports ``stats.summary()`` in the Prometheus
text format.  See the README section "Overload & graceful degradation".
"""

from .frontdoor import (
    AdmissionRefused,
    CircuitOpen,
    DeadlineExceeded,
    DispatcherClosed,
    LoadShed,
)
from .dispatcher import BatchDispatcher, DispatchStats
from .cluster import ClusterConfig, ClusterGateway, ClusterStats, rank_members
from .gateway import GatewayStats, ShardedGateway, route_fingerprint
from .metrics import render_metrics
from .remote import RemoteError, RemoteShard, ShardServer, ShardUnreachable
from .overload import (
    BrownoutConfig,
    BrownoutController,
    BrownoutTransition,
    overload_enabled,
    resolve_controller,
)

__all__ = [
    "AdmissionRefused",
    "BatchDispatcher",
    "BrownoutConfig",
    "BrownoutController",
    "BrownoutTransition",
    "CircuitOpen",
    "ClusterConfig",
    "ClusterGateway",
    "ClusterStats",
    "DeadlineExceeded",
    "DispatchStats",
    "DispatcherClosed",
    "GatewayStats",
    "LoadShed",
    "RemoteError",
    "RemoteShard",
    "ShardServer",
    "ShardUnreachable",
    "ShardedGateway",
    "overload_enabled",
    "rank_members",
    "render_metrics",
    "resolve_controller",
    "route_fingerprint",
]
