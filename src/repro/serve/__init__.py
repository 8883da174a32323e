"""Serving layer: request batching, setup caching, member execution.

Every front door is a :class:`ClusterGateway`: the request policy of
:mod:`repro.serve.frontdoor` (validation, grouping, admission and shedding,
deadlines, retry, the circuit breaker, drain and close) over a *ring* of
members (:mod:`repro.serve.cluster`: rendezvous routing, hedging, failover,
brownout degradation).  Each member runs its batches on a
:class:`~repro.serve.executor.SetupExecutor` — one setup LRU, one solve
path — in a thread pool, or behind a :class:`ShardServer` that a
:class:`RemoteShard` reaches over TCP (:mod:`repro.serve.remote`).
:class:`BatchDispatcher` is a ring of one thread member; several cores on
one host are reached by ``max_workers`` threads or by ``ShardServer``
processes on localhost.  See the README section "The serving ring: thread
and remote members".

The overload layer (:mod:`repro.serve.overload`) adds priority admission
with load shedding (:class:`LoadShed`) and a hysteresis
:class:`BrownoutController`; :func:`render_metrics` exports
``stats.summary()`` in the Prometheus text format.  See the README section
"Overload & graceful degradation".
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
from .metrics import render_metrics
from .executor import RemoteError
from .remote import RemoteShard, ShardServer, ShardUnreachable
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
    "LoadShed",
    "RemoteError",
    "RemoteShard",
    "ShardServer",
    "ShardUnreachable",
    "overload_enabled",
    "rank_members",
    "render_metrics",
    "resolve_controller",
]
