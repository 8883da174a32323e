"""Request batching and setup caching on worker threads: a one-member ring.

A production deployment of the solver faces many concurrent, mostly
repetitive solve requests: the same handful of operators (one per model /
grid / time step) hit with ever-changing right-hand sides.  The
:class:`BatchDispatcher` turns that request stream into batched solves on
cached setups:

* **Grouping** — requests are grouped by the operator's ``fingerprint()``:
  independently *built* equal operators share a content hash, and precision
  casts of one operator share an O(1) key derived from their common source
  (a cast copy does not, however, batch with an equal matrix built directly
  at the target precision — see :meth:`~repro.sparse.CSRMatrix.fingerprint`).
* **Execution** — each group runs as one
  :meth:`~repro.core.F3RSolver.solve_batch` on the
  :class:`~repro.serve.executor.SetupExecutor` of a single
  :class:`~repro.serve.executor.ThreadMember`: a bounded setup LRU,
  single-flight builds, per-fingerprint dispatch order (``max_workers=N``
  is bit-identical to ``max_workers=1``) and opportunistic rebuilds of
  evicted fingerprints.

The dispatcher *is* a :class:`~repro.serve.cluster.ClusterGateway` whose
ring holds that one thread member, so the request policy is the front-door
core's (:mod:`repro.serve.frontdoor`) and launch, result slots, brownout
degradation, prewarm and close are the ring's.  A setup that fails to build
fails its requests with a ``"setup"``
:class:`~repro.serve.executor.WorkerError` (it charges the circuit breaker and
is not retried); a batch that dies while solving is retried.
"""

from __future__ import annotations

from ..core import F3RConfig
from .cluster import ClusterConfig, ClusterGateway
from .frontdoor import (
    AdmissionRefused,
    CircuitOpen,
    DeadlineExceeded,
    DispatcherClosed,
    DispatchStats,
    LoadShed,
)

__all__ = [
    "AdmissionRefused",
    "BatchDispatcher",
    "CircuitOpen",
    "DeadlineExceeded",
    "DispatchStats",
    "DispatcherClosed",
    "LoadShed",
]


class BatchDispatcher(ClusterGateway):
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
        Number of operator setups kept in the LRU cache.
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
        self._init_ring(config, ClusterConfig(
            max_batch=max_batch, max_queue=max_queue, max_retries=max_retries,
            retry_backoff=retry_backoff, breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown), priority_depths, overload)
        self._add_thread_member("local", preconditioner, nblocks, alpha,
                                backend, cache_size, max_workers)
