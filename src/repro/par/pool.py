"""Persistent worker pool and the shared thread budget.

The parallel execution layer runs the hot kernels wide across threads.  NumPy
releases the GIL inside its vectorized loops, so partitioned gathers,
multiplies and reductions genuinely overlap on multicore hardware; on a
single core the default ``REPRO_THREADS=1`` keeps every kernel on today's
serial path with zero overhead (one integer comparison per call).

Three pieces live here:

* **Thread configuration** — ``REPRO_THREADS`` (default ``1``; ``auto`` =
  the machine's core count) read at import time, overridable per process
  with :func:`set_threads` / scoped with :func:`use_threads`, and a
  thread-local :func:`force_threads` override that bypasses the size
  heuristics (tests and the autotuner use it to exercise partitioned
  kernels on small fixtures).
* **The pool** — a lazily created, persistent pool of daemon workers.
  :func:`run_tasks` executes a list of thunks with the *calling thread as
  worker zero* (task 0 runs inline, the rest on the pool), so one-task
  calls never pay a handoff and the caller's cache-warm slab stays local.
  Pool workers are marked: a kernel invoked *from* a worker always reports
  an effective thread count of 1, so parallel kernels can never nest.
* **The budget** — inter-request dispatcher workers and intra-kernel
  threads share one budget (the configured thread count).  Each concurrently
  executing batch registers as a *consumer* (:func:`pool_consumer`);
  :func:`effective_threads` divides the budget by the number of active
  consumers, which is the oversubscription guard: four dispatcher workers on
  an eight-thread budget each fan their kernels across two threads instead
  of 4 × 8.

Determinism is not this module's concern — the partitioned kernels compute
every output row exactly as the serial kernel does (see
:mod:`repro.par.kernels`) — but the pool keeps the *structural* guarantees
those kernels rely on: tasks never nest, exceptions propagate to the caller,
and a failed task never leaves the pool wedged.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

__all__ = [
    "configured_procs",
    "configured_threads",
    "effective_threads",
    "force_threads",
    "forced_threads",
    "parallel_enabled",
    "pool_consumer",
    "pool_stats",
    "run_tasks",
    "set_threads",
    "use_threads",
]


def _parse_threads(spec: str | int | None) -> int:
    """``REPRO_THREADS`` value → a positive thread count (``auto`` = cores)."""
    if spec is None:
        return 1
    if isinstance(spec, int):
        return max(1, spec)
    text = str(spec).strip().lower()
    if text in ("", "1"):
        return 1
    if text in ("auto", "all", "0"):
        return max(1, os.cpu_count() or 1)
    try:
        return max(1, int(text))
    except ValueError as exc:
        raise ValueError(f"REPRO_THREADS must be an integer or 'auto'; "
                         f"got {spec!r}") from exc


_CONFIGURED = _parse_threads(os.environ.get("REPRO_THREADS"))

_LOCK = threading.Lock()
_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_SIZE = 0
_ACTIVE_CONSUMERS = 0
_PEAK_CONSUMERS = 0
_RUNS = 0
_TASKS = 0

#: set inside pool workers (and inline task execution) so kernels called from
#: a partition task never try to parallelize again
_TLS = threading.local()


def configured_threads() -> int:
    """The process-wide thread budget (``REPRO_THREADS`` / :func:`set_threads`)."""
    return _CONFIGURED


def configured_procs() -> int:
    """Always ``1``: the process tier is retired; e2e results record it."""
    return 1


def set_threads(spec: str | int) -> int:
    """Set the thread budget (``'auto'`` = cores); returns the old budget."""
    global _CONFIGURED
    previous = _CONFIGURED
    _CONFIGURED = _parse_threads(spec)
    return previous


@contextmanager
def use_threads(spec: str | int):
    """Scoped thread-budget override (process-wide, like ``set_threads``)."""
    previous = set_threads(spec)
    try:
        yield
    finally:
        set_threads(previous)


def parallel_enabled() -> bool:
    """Whether any kernel could run wider than one thread right now."""
    return _CONFIGURED > 1


# ---------------------------------------------------------------------- #
# Thread-local force override (tests / the thread-count autotuner)
# ---------------------------------------------------------------------- #
def forced_threads() -> int | None:
    """The calling thread's forced thread count, or ``None``."""
    return getattr(_TLS, "forced", None)


@contextmanager
def force_threads(n: int):
    """Pin the effective thread count for this thread, bypassing the
    per-kernel size heuristics and autotuned verdicts (the partitioners
    still clamp to the available work, so tiny inputs stay correct)."""
    previous = getattr(_TLS, "forced", None)
    _TLS.forced = max(1, int(n))
    try:
        yield
    finally:
        _TLS.forced = previous


# ---------------------------------------------------------------------- #
# Budget sharing between dispatcher workers and intra-kernel threads
# ---------------------------------------------------------------------- #
@contextmanager
def pool_consumer():
    """Register the calling thread as one budget consumer for the scope.

    The serving :class:`~repro.serve.executor.SetupExecutor` wraps each
    batch execution in this: with ``c`` batches in flight on a budget of
    ``T`` threads, each batch's kernels fan across ``max(1, T // c)``
    threads, so the two layers of parallelism never oversubscribe the
    machine.
    """
    global _ACTIVE_CONSUMERS, _PEAK_CONSUMERS
    with _LOCK:
        _ACTIVE_CONSUMERS += 1
        _PEAK_CONSUMERS = max(_PEAK_CONSUMERS, _ACTIVE_CONSUMERS)
    try:
        yield
    finally:
        with _LOCK:
            _ACTIVE_CONSUMERS -= 1


def active_consumers() -> int:
    """Number of currently registered budget consumers."""
    return _ACTIVE_CONSUMERS


def effective_threads() -> int:
    """Threads a kernel invoked *now*, on *this* thread, may fan across.

    The forced override wins; kernels running inside a pool worker get 1
    (no nesting); otherwise the configured budget divided by the number of
    active consumers (at least one share each).
    """
    forced = getattr(_TLS, "forced", None)
    if forced is not None:
        return forced
    if getattr(_TLS, "in_worker", False):
        return 1
    budget = _CONFIGURED
    if budget <= 1:
        return 1
    active = _ACTIVE_CONSUMERS
    return budget if active <= 1 else max(1, budget // active)


# ---------------------------------------------------------------------- #
# The persistent pool
# ---------------------------------------------------------------------- #
def _worker_init() -> None:
    _TLS.in_worker = True


def _ensure_executor_locked(nworkers: int) -> ThreadPoolExecutor:
    """The shared executor, grown (by replacement) to at least ``nworkers``.

    Caller holds ``_LOCK``.  Submission happens under the same lock
    acquisition (see :func:`run_tasks`), so no thread can submit to a
    retired executor; futures already submitted to one still complete on
    its threads (``shutdown(wait=False)`` only prevents new submissions).
    """
    global _EXECUTOR, _EXECUTOR_SIZE
    if _EXECUTOR is None or _EXECUTOR_SIZE < nworkers:
        if _EXECUTOR is not None:
            _EXECUTOR.shutdown(wait=False)
        _EXECUTOR = ThreadPoolExecutor(
            max_workers=nworkers, thread_name_prefix="repro-par",
            initializer=_worker_init)
        _EXECUTOR_SIZE = nworkers
    return _EXECUTOR


def run_tasks(tasks) -> None:
    """Execute every thunk in ``tasks``; the caller runs task 0 inline.

    Blocks until all tasks finish.  The first exception (pool tasks checked
    in order, then the inline task's) is re-raised in the caller.  Tasks
    must be independent — the partitioned kernels guarantee it by writing
    to disjoint output slices.
    """
    global _RUNS, _TASKS
    if not tasks:
        return
    if len(tasks) == 1:
        with _LOCK:
            _RUNS += 1
            _TASKS += 1
        tasks[0]()
        return
    with _LOCK:
        _RUNS += 1
        _TASKS += len(tasks)
        # submit under the lock: concurrent callers requesting a larger pool
        # replace the executor, and a retired executor rejects submissions
        executor = _ensure_executor_locked(len(tasks) - 1)
        futures: list[Future] = [executor.submit(task) for task in tasks[1:]]
    inline_exc: BaseException | None = None
    try:
        tasks[0]()
    except BaseException as exc:   # noqa: BLE001 - re-raised after the join
        inline_exc = exc
    # join everything before raising so no task still runs when the caller
    # resumes (the kernels reuse per-thread buffers across calls)
    pool_exc: BaseException | None = None
    for future in futures:
        exc = future.exception()
        if exc is not None and pool_exc is None:
            pool_exc = exc
    if pool_exc is not None:
        raise pool_exc
    if inline_exc is not None:
        raise inline_exc


def pool_stats() -> dict:
    """Budget, occupancy and lifetime counters (dispatcher stats surface
    these as the ``pool`` block)."""
    with _LOCK:
        return {
            "budget": _CONFIGURED,
            "active_consumers": _ACTIVE_CONSUMERS,
            "peak_consumers": _PEAK_CONSUMERS,
            "workers": _EXECUTOR_SIZE,
            "parallel_runs": _RUNS,
            "tasks_executed": _TASKS,
        }
