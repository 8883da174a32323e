"""Persistent process-pool execution tier (``REPRO_PROCS``).

Every Python-level step of a solve serializes on the GIL, so the process
tier runs whole batched solves in **worker processes**.  Each worker is
spawned fresh (no forked locks or thread state), attaches operator storage
zero-copy from :mod:`repro.par.shm`, warms its setups from the
``REPRO_ARTIFACTS`` store, and runs every batch on its own
:class:`~repro.serve.executor.SetupExecutor` — the executor of every
serving member, so results are bit-identical for every ``REPRO_PROCS``
value.  ``REPRO_PROCS`` (default ``1`` = in-process, ``auto`` = the core
count) is read by :class:`repro.serve.ShardedGateway`, overridable with
:func:`set_procs` / :func:`use_procs`.

This module owns the worker's protocol — one queue hop per *batch*:

==========================  =============================================
to worker                   from worker
==========================  =============================================
``("solve", id, fp, setup,  ``("result", wid, id, slots, snapshot)`` or
rhs_block, deadlines,       ``("error", wid, id, kind, type-name, message)``
degrade)``
``("warm", id, fp, setup)`` the same, with no slots
``("evict", fp)``           —  (drops solver, plans and the mapping)
``("stop",)``               ``("stopped", wid)`` then exit
—                           ``("hb", wid)``  (idle heartbeat tick)
==========================  =============================================

``setup`` travels only on a worker's first contact for a fingerprint: a
:class:`~repro.par.shm.ShmDescriptor`, or a one-time pickled operator for
families with no shared-memory form.  A worker asked about a fingerprint it
no longer holds (its setup batch died, or its executor's ``cache_size`` LRU
evicted it) replies ``stale`` and the caller reships.  ``deadlines`` are
*wall-clock* absolutes (monotonic clocks are per-process).

Worker death (injected via :func:`repro.faults.maybe_kill_process`, or real)
fails the in-flight batches with :class:`WorkerDied`.  The **watchdog**
catches a worker that is alive but silent (:func:`repro.faults.maybe_hang`):
workers heartbeat through the response queue, and one with work
outstanding and no beat for ``hang_timeout`` seconds is SIGKILLed and its
batches fail with :class:`WorkerHung`.  Respawned workers do not reinstall
a shipped fault plan; first-generation workers offset its seed by their id.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time

from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

__all__ = [
    "ExpiredRequest",
    "ProcPool",
    "RemoteError",
    "WorkerDied",
    "WorkerError",
    "WorkerHung",
    "WorkerInit",
    "configured_procs",
    "resolve_procs",
    "set_procs",
    "use_procs",
]


def _parse_procs(spec: str | int | None) -> int:
    """``REPRO_PROCS`` value → a positive process count (``auto`` = cores)."""
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
        raise ValueError(f"REPRO_PROCS must be an integer or 'auto'; "
                         f"got {spec!r}") from exc


_CONFIGURED = _parse_procs(os.environ.get("REPRO_PROCS"))


def configured_procs() -> int:
    """The process-wide worker-process budget (``REPRO_PROCS`` / :func:`set_procs`)."""
    return _CONFIGURED


def set_procs(spec: str | int) -> int:
    """Set the process budget (``'auto'`` = cores); returns the old budget."""
    global _CONFIGURED
    previous = _CONFIGURED
    _CONFIGURED = _parse_procs(spec)
    return previous


@contextmanager
def use_procs(spec: str | int):
    """Scoped process-budget override (process-wide, like ``set_procs``)."""
    previous = set_procs(spec)
    try:
        yield
    finally:
        set_procs(previous)


def resolve_procs(procs: str | int | None) -> int:
    """An explicit request (int/'auto') or ``None`` → the configured budget."""
    return _CONFIGURED if procs is None else _parse_procs(procs)


class WorkerDied(RuntimeError):
    """A worker process exited while batches were in flight on it."""

    def __init__(self, worker_id: int, exitcode: int | None = None) -> None:
        super().__init__(f"worker {worker_id} died "
                         f"(exitcode={exitcode!r}) with batches in flight")
        self.worker_id = worker_id
        self.exitcode = exitcode


class WorkerHung(WorkerDied):
    """A worker stayed alive but heartbeat-silent past ``hang_timeout``.

    Raised by the watchdog after SIGKILLing the wedged process; subclassing
    :class:`WorkerDied` keeps the gateway's respawn/retry path unchanged.
    """

    def __init__(self, worker_id: int, silent_s: float) -> None:
        RuntimeError.__init__(
            self, f"worker {worker_id} hung: alive but heartbeat-silent for "
                  f"{silent_s:.2f}s with batches in flight (killed)")
        self.worker_id = worker_id
        self.exitcode = None
        self.silent_s = silent_s


@dataclass(frozen=True)
class ExpiredRequest:
    """Per-request marker in a result list: its deadline passed before the
    worker dequeued the batch, so no solve was attempted (picklable)."""

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
    """An exception raised inside a worker, relayed by (type, message).

    ``kind`` distinguishes ``"setup"`` failures (solver construction — feeds
    the gateway's per-fingerprint circuit breaker) from ``"solve"`` failures
    (retryable like any died batch) and ``"stale"`` bookkeeping misses (the
    worker never received the fingerprint's setup because the batch carrying
    it died first — the caller forgets the fingerprint and retries, without
    charging the breaker).
    """

    def __init__(self, kind: str, type_name: str, message: str) -> None:
        super().__init__(f"worker {kind} error: {type_name}: {message}")
        self.kind = kind
        self.type_name = type_name
        self.message = message


@dataclass(frozen=True)
class WorkerInit:
    """Everything a spawned worker needs that is not in the environment.

    Spawn inherits ``os.environ``, but process-wide *programmatic* overrides
    (``set_artifacts_dir``, ``set_threads``, an active :mod:`repro.faults`
    plan installed via ``inject()``) do not cross the spawn boundary — they
    are shipped explicitly so a worker behaves like the parent would.
    """

    config: object                      # F3RConfig (frozen dataclass)
    preconditioner: str | None = "auto"
    nblocks: int | None = None
    alpha: float = 1.0
    backend: str | None = None
    artifacts_dir: str | None = None
    threads: int = 1
    fault_spec: str | None = None
    cache_size: int = 8


# ---------------------------------------------------------------------- #
# Worker process main
# ---------------------------------------------------------------------- #
def _worker_stats_snapshot(state: dict, executor) -> dict:
    """Point-in-time worker counters shipped with every result message."""
    from ..cache import cold_start_stats
    from ..plans import plan_cache_stats

    artifacts = cold_start_stats()
    warm = {kind: counts.get("hits", 0)
            for kind, counts in artifacts.get("by_kind", {}).items()}
    return {
        **executor.stats(),
        "shm_attaches": state["shm_attaches"],
        "shm_bytes": state["shm_bytes"],
        "pickled_setups": state["pickled_setups"],
        "warm_from_artifacts": warm,
        "artifact_saved_ms": round(artifacts.get("saved_ms", 0.0), 3),
        "plan_cache": plan_cache_stats().get("cached", 0),
    }


def _worker_drop_fingerprint(state: dict, fp: str) -> None:
    """Release what a fingerprint pinned beside its solver: plans, shm views."""
    import gc as _gc

    from ..plans import drop_plans_for

    state["operators"].pop(fp, None)
    drop_plans_for(fp)
    attachment = state["attachments"].pop(fp, None)
    if attachment is not None:
        _gc.collect()
        if not attachment.close():
            # a view is still referenced somewhere; park it for the final
            # sweep at shutdown rather than leaking the mapping silently
            state["stubborn"].append(attachment)

class _Heartbeat:
    """Worker-side heartbeat: idle ticks on the response queue.

    A daemon thread puts ``("hb", wid)`` every ``interval`` seconds so the
    collector can tell *alive-but-wedged* from *alive-and-slow*.
    :meth:`wedge` suppresses ticks for a duration — the hang-injection hook
    models a whole-process stall (which would stop a real heartbeat thread
    too, since a C-level wedge holds the GIL).
    """

    def __init__(self, resp_q, worker_id: int, interval: float) -> None:
        self._q = resp_q
        self._wid = worker_id
        self._interval = interval
        self._wedged_until = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"repro-proc-{worker_id}-hb")

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def wedge(self, duration: float) -> None:
        self._wedged_until = max(self._wedged_until,
                                 time.monotonic() + float(duration))

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if time.monotonic() < self._wedged_until:
                continue
            try:
                self._q.put(("hb", self._wid))
            except (ValueError, OSError):   # pragma: no cover - teardown race
                return


def _worker_main(worker_id: int, init: WorkerInit, req_q, resp_q,
                 hb_interval: float = 1.0) -> None:
    """Entry point of one spawned worker (module-level for picklability)."""
    from .. import faults
    from ..cache import set_artifacts_dir
    from ..serve.executor import SetupExecutor
    from .pool import set_threads
    from .shm import attach_arrays, operator_from_payload

    set_threads(init.threads)
    if init.artifacts_dir is not None:
        set_artifacts_dir(init.artifacts_dir)
    if init.fault_spec:
        plan = faults.install_from_env(init.fault_spec)
        if plan is not None:
            # decorrelate the fleet: identical seeds would fire the same
            # fault at the same call index in every worker (lockstep), which
            # no real deployment does
            plan.seed += 7919 * worker_id

    heartbeat = None
    if hb_interval and hb_interval > 0:
        heartbeat = _Heartbeat(resp_q, worker_id, hb_interval)
        heartbeat.start()

    state = {"operators": {}, "attachments": {}, "stubborn": [],
             "shm_attaches": 0, "shm_bytes": 0, "pickled_setups": 0}
    executor = SetupExecutor(
        init.config, init.preconditioner or "auto", init.nblocks, init.alpha,
        init.backend, init.cache_size,
        on_evict=lambda fp: _worker_drop_fingerprint(state, fp))

    def operator_for(fp: str, setup) -> object:
        """The fingerprint's operator: kept since its setup arrived, or
        attached (or unpickled) from the shipped ``setup`` now."""
        operator = state["operators"].get(fp)
        if operator is not None:
            return operator
        if "descriptor" in setup:
            attachment = attach_arrays(setup["descriptor"])
            state["attachments"][fp] = attachment
            state["shm_attaches"] += 1
            state["shm_bytes"] += attachment.nbytes
            operator = operator_from_payload(attachment.arrays,
                                             setup["descriptor"].meta)
        else:
            operator = pickle.loads(setup["pickle"])
            state["pickled_setups"] += 1
        state["operators"][fp] = operator
        return operator

    def check_known(fp: str, setup) -> None:
        # the caller believed this worker knew the fingerprint, but its
        # setup never arrived (a predecessor batch died with it) or was
        # evicted since: a bookkeeping staleness, not a setup failure — the
        # caller forgets the fingerprint and reships the setup
        if setup is None and fp not in state["operators"]:
            raise WorkerError("stale", "KeyError",
                              f"no setup shipped for unknown fingerprint {fp}")

    def hazards(fp: str, setup) -> None:
        # injected process death, hang (heartbeat suppressed, so the
        # watchdog path runs) and latency (a slow worker, whose heartbeat
        # keeps ticking), before any work of a batch with live columns
        faults.maybe_kill_process("gateway.worker")
        faults.maybe_hang("gateway.worker",
                          wedge=heartbeat.wedge if heartbeat else None)
        faults.maybe_delay("gateway.latency")
        check_known(fp, setup)

    while True:
        message = req_q.get()
        op = message[0]
        if op == "stop":
            if heartbeat is not None:
                heartbeat.stop()
            for fp in list(state["operators"]):
                executor.evict(fp)
            resp_q.put(("stopped", worker_id))
            return
        if op == "evict":
            executor.evict(message[1])
            continue
        if op not in ("solve", "warm"):   # pragma: no cover - protocol guard
            continue
        _, batch_id, fp, setup = message[:4]
        factory = partial(operator_for, fp, setup)
        try:
            if op == "warm":
                check_known(fp, setup)
                executor.warm(fp, factory)
                slots = []
            else:
                rhs_block, deadlines, degrade = message[4:]
                slots = executor.run(fp, factory, rhs_block, deadlines, degrade,
                                     before=partial(hazards, fp, setup))
        except WorkerError as exc:
            resp_q.put(("error", worker_id, batch_id, exc.kind,
                        exc.type_name, exc.message))
        except BaseException as exc:   # noqa: BLE001 - relayed to the gateway
            resp_q.put(("error", worker_id, batch_id,
                        "setup" if op == "warm" else "solve",
                        type(exc).__name__, str(exc)))
        else:
            resp_q.put(("result", worker_id, batch_id, slots,
                        _worker_stats_snapshot(state, executor)))


# ---------------------------------------------------------------------- #
# The pool
# ---------------------------------------------------------------------- #
@dataclass
class _Slot:
    process: object = None
    req_q: object = None
    generation: int = 0
    known: set = field(default_factory=set)
    outstanding: int = 0
    deaths: int = 0
    hangs: int = 0
    last_beat: float = 0.0
    heard: bool = False     # any message this generation (arms the watchdog)


class ProcPool:
    """``nprocs`` persistent spawn-start worker processes plus a collector.

    The gateway's process members call it, one worker slot each:
    :meth:`submit_batch` is the one queue hop per batch, resolving with
    ``(slots, snapshot)`` or failing with :class:`WorkerDied` /
    :class:`WorkerError`.  A setup payload ships once per (worker
    generation, fingerprint).

    ``hang_timeout`` arms the watchdog (``None`` disables it): a worker with
    batches outstanding and no heartbeat for that long is
    :class:`WorkerHung`, SIGKILLed, and its batches failed.  A generation
    that has not yet sent its first message gets ``_STARTUP_GRACE`` more
    seconds (spawn + import can exceed a tight timeout).
    ``heartbeat_interval`` is the worker's idle-tick period (default:
    ``min(1, hang_timeout / 4)``).
    """

    _POLL = 0.05
    #: extra silence allowed before a never-heard worker generation is
    #: classified (spawn + package import can dwarf a tight hang_timeout)
    _STARTUP_GRACE = 20.0

    def __init__(self, nprocs: int, init: WorkerInit,
                 hang_timeout: float | None = 30.0,
                 heartbeat_interval: float | None = None) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be > 0 (or None to disable)")
        self.init = init
        self.hang_timeout = hang_timeout
        if heartbeat_interval is None:
            heartbeat_interval = (min(1.0, hang_timeout / 4.0)
                                  if hang_timeout is not None else 1.0)
        self.heartbeat_interval = float(heartbeat_interval)
        self._ctx = mp.get_context("spawn")
        self._resp_q = self._ctx.Queue()
        self._slots = [_Slot() for _ in range(nprocs)]
        self._lock = threading.Lock()
        self._pending: dict[int, tuple[Future, int]] = {}   # batch_id -> (future, worker)
        self._next_batch = 0
        self._closed = False
        self.stats_snapshots: dict[int, dict] = {}
        self.deaths = 0
        self.hangs = 0
        for wid in range(nprocs):
            self._spawn(wid, fault_spec=init.fault_spec)
        self._collector = threading.Thread(target=self._collect,
                                           name="repro-procpool-collector",
                                           daemon=True)
        self._collector.start()

    # -------------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._slots)

    def _spawn(self, worker_id: int, fault_spec: str | None) -> None:
        slot = self._slots[worker_id]
        init = self.init if fault_spec == self.init.fault_spec else \
            WorkerInit(**{**self.init.__dict__, "fault_spec": fault_spec})
        slot.req_q = self._ctx.Queue()
        slot.process = self._ctx.Process(
            target=_worker_main, args=(worker_id, init, slot.req_q,
                                       self._resp_q, self.heartbeat_interval),
            name=f"repro-proc-{worker_id}", daemon=True)
        slot.process.start()
        slot.known = set()
        slot.last_beat = time.monotonic()
        slot.heard = False

    def alive(self, worker_id: int) -> bool:
        process = self._slots[worker_id].process
        return process is not None and process.is_alive()

    def ensure_worker(self, worker_id: int) -> None:
        """Respawn a dead slot (fresh generation; no fault plan reinstalled)."""
        with self._lock:
            if self._closed or self.alive(worker_id):
                return
            slot = self._slots[worker_id]
            slot.generation += 1
            slot.deaths += 1
            self.deaths += 1
            self._spawn(worker_id, fault_spec=None)

    def queue_depths(self) -> dict[int, int]:
        return {wid: slot.outstanding for wid, slot in enumerate(self._slots)}

    # -------------------------------------------------------------- #
    def submit_batch(self, worker_id: int, fp: str, rhs_block,
                     setup_factory, deadlines=None, degrade=None) -> Future:
        """One queue hop: dispatch a whole batch to ``worker_id``.

        ``setup_factory()`` is invoked only when this worker generation has
        never seen ``fp`` — its payload (descriptor or pickled operator)
        rides along.  ``deadlines`` are per-column *wall-clock* absolutes the
        worker enforces on dequeue; ``degrade`` flags the columns to solve
        one precision tier lower.  Resolves to ``(slots, snapshot)``.
        """
        return self._send(worker_id, fp, setup_factory,
                          (rhs_block, deadlines, degrade))

    def submit_warm(self, worker_id: int, fp: str, setup_factory) -> Future:
        """Build the solver for ``fp`` on ``worker_id`` without solving;
        resolves to ``([], snapshot)``."""
        return self._send(worker_id, fp, setup_factory, ())

    def _send(self, worker_id: int, fp: str, setup_factory,
              body: tuple) -> Future:
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcPool is closed")
            slot = self._slots[worker_id]
            if slot.process is None or not slot.process.is_alive():
                raise WorkerDied(worker_id, getattr(slot.process, "exitcode", None))
            batch_id = self._next_batch
            self._next_batch += 1
            setup = None
            if fp not in slot.known:
                setup = setup_factory()
                slot.known.add(fp)
            self._pending[batch_id] = (future, worker_id)
            slot.outstanding += 1
            # enqueue under the lock: concurrent submitters (the gateway's
            # retry timers) must not slip a no-setup batch into the queue
            # ahead of the batch that carries the fingerprint's setup
            slot.req_q.put(("solve" if body else "warm", batch_id, fp, setup)
                           + body)
        return future

    def forget(self, fp: str) -> None:
        """Drop ``fp`` from every slot's known set so the next batch reships
        its setup (recovery from a ``stale`` worker error — the setup-carrying
        batch died before the worker could build the solver)."""
        with self._lock:
            for slot in self._slots:
                slot.known.discard(fp)

    def evict(self, fp: str) -> None:
        """Tell every worker that attached ``fp`` to drop and close it."""
        with self._lock:
            targets = [slot for slot in self._slots if fp in slot.known]
            for slot in targets:
                slot.known.discard(fp)
        for slot in targets:
            if slot.process is not None and slot.process.is_alive():
                slot.req_q.put(("evict", fp))

    # -------------------------------------------------------------- #
    def _collect(self) -> None:
        """Collector thread: route responses, detect deaths, watch for hangs."""
        import queue as _queue

        while True:
            try:
                message = self._resp_q.get(timeout=self._POLL)
            except _queue.Empty:
                message = None
            except (EOFError, OSError):   # pragma: no cover - teardown race
                return
            if message is not None:
                # every message is a heartbeat: index 1 is the worker id for
                # all response types, including the dedicated ("hb", wid) tick
                wid = message[1]
                if 0 <= wid < len(self._slots):
                    self._slots[wid].last_beat = time.monotonic()
                    self._slots[wid].heard = True
                self._handle(message)
            dead = []
            hung = []
            now = time.monotonic()
            with self._lock:
                if self._closed and not self._pending:
                    return
                for batch_id, (future, wid) in list(self._pending.items()):
                    slot = self._slots[wid]
                    process = slot.process
                    if process is not None and not process.is_alive():
                        dead.append((batch_id, future, wid, process.exitcode))
                        del self._pending[batch_id]
                        slot.outstanding -= 1
                if self.hang_timeout is not None:
                    for wid, slot in enumerate(self._slots):
                        process = slot.process
                        if (slot.outstanding <= 0 or process is None
                                or not process.is_alive()):
                            continue
                        # the tight timeout applies only once this generation
                        # has produced any message: spawn + import can exceed
                        # it, and a still-starting worker is not hung.  A
                        # never-heard worker still gets classified after the
                        # startup grace, so a wedge before the first beat
                        # cannot strand its batches forever.
                        silent = now - slot.last_beat
                        limit = (self.hang_timeout if slot.heard
                                 else self.hang_timeout + self._STARTUP_GRACE)
                        if silent <= limit:
                            continue
                        # alive but heartbeat-silent past the timeout with
                        # work in flight: classify as hung, reap its batches
                        victims = [(bid, self._pending.pop(bid)[0])
                                   for bid in list(self._pending)
                                   if self._pending[bid][1] == wid]
                        slot.outstanding = 0
                        slot.hangs += 1
                        self.hangs += 1
                        slot.last_beat = now
                        hung.append((process, wid, silent,
                                     [f for _, f in victims]))
            for _, future, wid, exitcode in dead:
                future.set_exception(WorkerDied(wid, exitcode))
            for process, wid, silent, futures in hung:
                process.kill()          # SIGKILL: a wedged worker won't exit
                # reap before failing the futures so the respawn path
                # (ensure_worker, from the caller's retry) sees a dead slot
                process.join(timeout=2.0)
                for future in futures:
                    future.set_exception(WorkerHung(wid, silent))

    def _handle(self, message) -> None:
        op = message[0]
        if op == "result":
            _, wid, batch_id, results, snapshot = message
            with self._lock:
                self.stats_snapshots[wid] = snapshot
                entry = self._pending.pop(batch_id, None)
                if entry is not None:
                    self._slots[wid].outstanding -= 1
            if entry is not None:
                entry[0].set_result((results, snapshot))
        elif op == "error":
            _, wid, batch_id, kind, type_name, text = message
            with self._lock:
                entry = self._pending.pop(batch_id, None)
                if entry is not None:
                    self._slots[wid].outstanding -= 1
            if entry is not None:
                entry[0].set_exception(WorkerError(kind, type_name, text))
        # "stopped" needs no action: close() joins the process

    # -------------------------------------------------------------- #
    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker, join, and fail anything still pending."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            for slot in self._slots:
                slot.outstanding = 0
        for future, wid in pending:
            if not future.done():
                future.set_exception(RuntimeError("ProcPool closed"))
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                try:
                    slot.req_q.put(("stop",))
                except (ValueError, OSError):   # pragma: no cover
                    pass
        deadline = time.monotonic() + timeout
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            slot.req_q.cancel_join_thread()
            slot.req_q.close()
        self._collector.join(timeout=2.0)
        self._resp_q.cancel_join_thread()
        self._resp_q.close()
