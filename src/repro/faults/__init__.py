"""Deterministic fault injection for robustness testing.

The guards and the recovery ladder exist to survive numerical corruption and
infrastructure failures — this module *manufactures* those failures on
demand, deterministically, so the survival machinery can be tested end to
end instead of waiting for a real fp16 overflow:

* **Kernel corruption** — a seeded :class:`FaultPlan` interposes a proxy
  between the solvers and the active :class:`~repro.backends.KernelBackend`
  (via the ``repro.backends`` wrapper hook) and poisons kernel outputs with
  NaN/Inf at deterministic ``(site, call-count)`` coordinates.
* **Worker failures** — :func:`maybe_fail_worker` raises
  :class:`InjectedFault` inside dispatcher workers at seeded call counts,
  exercising the retry/backoff path.
* **Latency** — :func:`maybe_delay` sleeps a configured amount at seeded
  call counts, exercising deadlines.
* **Network faults** — :func:`maybe_net` tells a transport what to do with
  the message it is about to send: deliver, ``drop`` it silently, ``dup``
  it (send twice), or ``disconnect`` the link abruptly, plus a per-message
  injected delay drawn from ``net_delay_ms``.  The remote shard tier
  (:mod:`repro.serve.remote`) consults it on every frame, so partitions,
  lost replies, and duplicated deliveries replay exactly from a seed.

Determinism: every decision is a pure function of ``(seed, site,
call-count)`` — the per-site call counter plus a ``Philox``-style seed
sequence over ``(seed, crc32(site), count)`` — so a failing hammer run
replays exactly from its seed, across processes.

Zero cost when idle: with no active plan the backends hook is uninstalled
(one ``is None`` check in ``get_backend``) and the dispatcher helpers
return after one global read.  Activation is explicit: the
:func:`inject` context manager, or the ``REPRO_FAULTS`` environment
variable (``seed=7,rate=0.02,sites=spmv+trsv,kinds=nan``) parsed by
:func:`install_from_env` at package import.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..backends import _set_backend_wrapper

__all__ = [
    "FaultPlan",
    "FaultRecord",
    "InjectedFault",
    "active_plan",
    "inject",
    "install_plan",
    "install_from_env",
    "maybe_delay",
    "maybe_fail_worker",
    "maybe_hang",
    "maybe_kill_process",
    "maybe_net",
]

#: kernel-method name -> fault site label
_KERNEL_SITES = {
    "spmv_csr": "spmv",
    "spmm_csr": "spmv",
    "spmv_ell": "spmv",
    "spmm_ell": "spmv",
    "apply_stencil": "spmv",
    "apply_stencil_batch": "spmv",
    "spmv_axpy": "spmv",
    "spmm_axpy": "spmv",
    "trsv": "trsv",
    "trsm": "trsv",
}

#: the active plan (process-global: dispatcher workers are other threads)
_PLAN: "FaultPlan | None" = None
_LOCK = threading.Lock()


class InjectedFault(RuntimeError):
    """An infrastructure failure manufactured by the fault plan."""

    def __init__(self, message: str, site: str, call: int) -> None:
        super().__init__(message)
        self.site = site
        self.call = call


@dataclass
class FaultRecord:
    """One fault as fired (the plan's audit log for test assertions)."""

    site: str
    call: int
    kind: str

    def summary(self) -> dict:
        return {"site": self.site, "call": self.call, "kind": self.kind}


class FaultPlan:
    """Seeded, deterministic fault schedule.

    Parameters
    ----------
    seed:
        Root seed; two plans with the same seed and parameters fire
        identical faults at identical call counts.
    rate:
        Per-call probability of corrupting a kernel output at an enabled
        site (deterministic given the seed).
    sites:
        Kernel sites eligible for corruption (``"spmv"``, ``"trsv"``,
        ``"orthogonalize"``).
    kinds:
        Corruption payloads drawn per fault: ``"nan"`` and/or ``"inf"``.
    worker_rate:
        Per-call probability that :func:`maybe_fail_worker` raises.
    kill_rate:
        Per-call probability that :func:`maybe_kill_process` hard-exits the
        calling process (``os._exit``) — worker-death injection for the
        process tier, where a "worker failure" must be a real process exit,
        not a catchable exception.
    latency, latency_rate:
        :func:`maybe_delay` sleeps ``latency`` seconds with probability
        ``latency_rate`` per call.
    hang_rate, hang_ms:
        :func:`maybe_hang` wedges the calling worker for ``hang_ms``
        milliseconds with probability ``hang_rate`` per call — unlike
        latency, a hang also suppresses the worker's heartbeat (via the
        ``wedge`` hook), modeling a whole-process stall that the ProcPool
        watchdog must classify as :class:`~repro.par.procpool.WorkerHung`.
    drop_rate, dup_rate, disconnect_rate, net_delay_ms:
        Network-message faults consulted by :func:`maybe_net` per frame:
        probability the message is silently dropped, delivered twice, or
        the link is torn down mid-send, plus a per-message delay drawn
        uniformly from ``[0, net_delay_ms)`` milliseconds.  At most one of
        drop/dup/disconnect fires per message (disconnect wins over drop
        over dup); the delay composes with any of them.
    max_faults:
        Hard cap on the number of kernel corruptions (``None`` = no cap);
        worker failures, latency, and network faults are not counted
        against it.
    """

    def __init__(self, seed: int = 0, rate: float = 0.01,
                 sites: tuple[str, ...] = ("spmv", "trsv"),
                 kinds: tuple[str, ...] = ("nan", "inf"),
                 worker_rate: float = 0.0, latency: float = 0.0,
                 latency_rate: float = 0.0, kill_rate: float = 0.0,
                 hang_rate: float = 0.0, hang_ms: float = 0.0,
                 drop_rate: float = 0.0, dup_rate: float = 0.0,
                 disconnect_rate: float = 0.0, net_delay_ms: float = 0.0,
                 max_faults: int | None = None) -> None:
        self.seed = int(seed)
        self.rate = float(rate)
        self.sites = tuple(sites)
        self.kinds = tuple(kinds) or ("nan",)
        self.worker_rate = float(worker_rate)
        self.latency = float(latency)
        self.latency_rate = float(latency_rate)
        self.kill_rate = float(kill_rate)
        self.hang_rate = float(hang_rate)
        self.hang_ms = float(hang_ms)
        self.drop_rate = float(drop_rate)
        self.dup_rate = float(dup_rate)
        self.disconnect_rate = float(disconnect_rate)
        self.net_delay_ms = float(net_delay_ms)
        self.max_faults = max_faults
        self.records: list[FaultRecord] = []
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # Deterministic decisions
    # -------------------------------------------------------------- #
    def _next_call(self, site: str) -> int:
        with self._lock:
            call = self._counts.get(site, 0)
            self._counts[site] = call + 1
        return call

    def _rolls(self, site: str, call: int, n: int = 2) -> np.ndarray:
        # a fresh Philox stream per (seed, site, call): replayable across
        # threads and processes regardless of interleaving
        rng = np.random.Generator(np.random.Philox(
            key=self.seed, counter=[zlib.crc32(site.encode()), call, 0, 0]))
        return rng.random(n)

    def fires(self, site: str) -> str | None:
        """Corruption kind for this call at ``site``, or ``None``."""
        if site not in self.sites or self.rate <= 0.0:
            return None
        call = self._next_call(site)
        if self.max_faults is not None and len(self.records) >= self.max_faults:
            return None
        r_fire, r_kind = self._rolls(site, call)
        if r_fire >= self.rate:
            return None
        kind = self.kinds[int(r_kind * len(self.kinds)) % len(self.kinds)]
        with self._lock:
            self.records.append(FaultRecord(site=site, call=call, kind=kind))
        return kind

    def worker_fires(self, site: str = "dispatcher.worker") -> int | None:
        """Call index when a worker failure fires this call, else ``None``."""
        if self.worker_rate <= 0.0:
            return None
        call = self._next_call(site)
        if self._rolls(site, call, 1)[0] < self.worker_rate:
            with self._lock:
                self.records.append(FaultRecord(site=site, call=call,
                                                kind="worker"))
            return call
        return None

    def kill_fires(self, site: str = "gateway.worker") -> int | None:
        """Call index when a process kill fires this call, else ``None``."""
        if self.kill_rate <= 0.0:
            return None
        call = self._next_call(site)
        if self._rolls(site, call, 1)[0] < self.kill_rate:
            with self._lock:
                self.records.append(FaultRecord(site=site, call=call,
                                                kind="kill"))
            return call
        return None

    def hang_fires(self, site: str = "gateway.worker") -> float | None:
        """Hang duration (seconds) when a wedge fires this call, else ``None``."""
        if self.hang_rate <= 0.0 or self.hang_ms <= 0.0:
            return None
        call = self._next_call(site + ".hang")
        if self._rolls(site + ".hang", call, 1)[0] < self.hang_rate:
            with self._lock:
                self.records.append(FaultRecord(site=site, call=call,
                                                kind="hang"))
            return self.hang_ms / 1e3
        return None

    def net_fires(self, site: str = "net.link") -> tuple[str | None, float]:
        """Network-fault decision for the message about to cross ``site``.

        Returns ``(event, delay_seconds)`` where ``event`` is one of
        ``"drop"``, ``"dup"``, ``"disconnect"`` or ``None`` (deliver
        normally).  Deterministic per ``(seed, site, call-count)`` like
        every other decision; fired events land in :attr:`records`.
        """
        if (self.drop_rate <= 0.0 and self.dup_rate <= 0.0
                and self.disconnect_rate <= 0.0 and self.net_delay_ms <= 0.0):
            return None, 0.0
        call = self._next_call(site)
        r_disc, r_drop, r_dup, r_delay = self._rolls(site, call, 4)
        delay = (r_delay * self.net_delay_ms / 1e3
                 if self.net_delay_ms > 0.0 else 0.0)
        event = None
        if self.disconnect_rate > 0.0 and r_disc < self.disconnect_rate:
            event = "disconnect"
        elif self.drop_rate > 0.0 and r_drop < self.drop_rate:
            event = "drop"
        elif self.dup_rate > 0.0 and r_dup < self.dup_rate:
            event = "dup"
        if event is not None:
            with self._lock:
                self.records.append(FaultRecord(site=site, call=call,
                                                kind=event))
        return event, delay

    def delay_fires(self, site: str = "dispatcher.latency") -> float | None:
        """Sleep duration for this call, or ``None``."""
        if self.latency_rate <= 0.0 or self.latency <= 0.0:
            return None
        call = self._next_call(site)
        if self._rolls(site, call, 1)[0] < self.latency_rate:
            return self.latency
        return None

    # -------------------------------------------------------------- #
    # Payload application
    # -------------------------------------------------------------- #
    @staticmethod
    def _payload(kind: str) -> float:
        return float("nan") if kind == "nan" else float("inf")

    def corrupt(self, out: np.ndarray, site: str, kind: str) -> np.ndarray:
        """Poison one deterministic entry of ``out`` in place."""
        flat = out.reshape(-1)
        if flat.size == 0:
            return out
        idx = zlib.crc32(f"{site}:{len(self.records)}".encode()) % flat.size
        flat[idx] = self._payload(kind)
        return out

    def spec(self) -> str:
        """The plan as a ``REPRO_FAULTS``-format string.

        Round-trips through :func:`install_from_env`: the gateway ships the
        active plan to spawned workers this way, so both sides replay the
        same seeded schedule (call counters start fresh in each process —
        per-process determinism, as with any multi-process ``REPRO_FAULTS``).
        """
        parts = [f"seed={self.seed}", f"rate={self.rate}",
                 "sites=" + "+".join(self.sites),
                 "kinds=" + "+".join(self.kinds)]
        if self.worker_rate:
            parts.append(f"worker_rate={self.worker_rate}")
        if self.latency:
            parts.append(f"latency={self.latency}")
        if self.latency_rate:
            parts.append(f"latency_rate={self.latency_rate}")
        if self.kill_rate:
            parts.append(f"kill_rate={self.kill_rate}")
        if self.hang_rate:
            parts.append(f"hang_rate={self.hang_rate}")
        if self.hang_ms:
            parts.append(f"hang_ms={self.hang_ms}")
        if self.drop_rate:
            parts.append(f"drop_rate={self.drop_rate}")
        if self.dup_rate:
            parts.append(f"dup_rate={self.dup_rate}")
        if self.disconnect_rate:
            parts.append(f"disconnect_rate={self.disconnect_rate}")
        if self.net_delay_ms:
            parts.append(f"net_delay_ms={self.net_delay_ms}")
        if self.max_faults is not None:
            parts.append(f"max={self.max_faults}")
        return ",".join(parts)

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "faults": len(self.records),
            "by_site": {s: sum(1 for r in self.records if r.site == s)
                        for s in sorted({r.site for r in self.records})},
        }


class FaultyBackend:
    """Proxy interposed between the solvers and a real kernel backend.

    There is one proxy per engine (:func:`_proxy_for`), stable across fault
    sessions.  Compiled solve plans key on the backend object, so a solve
    inside :func:`inject` runs on plans bound to the proxy — every kernel
    call reaches the fault plan even when the solver was warmed before the
    session — while fault-free solves keep the plans bound to the bare
    engine.  The proxy reads the *process-global* active plan on every call,
    so a plan compiled during :func:`inject` passes straight through once
    the session ends.
    """

    def __init__(self, inner) -> None:
        # bypass __setattr__-free plain attribute; __getattr__ handles the rest
        object.__setattr__(self, "_inner", inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultyBackend over {self._inner!r}>"

    def _maybe_corrupt(self, out: np.ndarray, site: str) -> np.ndarray:
        plan = _PLAN
        if plan is None:
            return out
        kind = plan.fires(site)
        if kind is None:
            return out
        return plan.corrupt(out, site, kind)

    def orthogonalize(self, basis, j, w, vec_prec, scratch=None, record=True):
        h_col, w_orth, h_norm = self._inner.orthogonalize(
            basis, j, w, vec_prec, scratch=scratch, record=record)
        plan = _PLAN
        if plan is not None:
            kind = plan.fires("orthogonalize")
            if kind is not None:
                h_norm = plan._payload(kind)
                h_col[j + 1] = h_norm
        return h_col, w_orth, h_norm

    def orthonormalize(self, basis, j, w, vec_prec, scratch=None, record=True):
        plan = _PLAN
        if plan is None:
            return self._inner.orthonormalize(basis, j, w, vec_prec,
                                              scratch=scratch, record=record)
        # route through the (wrapped) orthogonalize so the corruption lands
        # before the normalization decision, like a real overflow would
        h_col, w_orth, h_norm = self.orthogonalize(basis, j, w, vec_prec,
                                                   scratch=scratch, record=record)
        normalized = h_norm != 0.0 and np.isfinite(h_norm)
        if normalized:
            from ..sparse import vectorops as vo

            basis[j + 1] = vo.scal(1.0 / h_norm, w_orth, record=record)
        return h_col, h_norm, normalized


def _wrapped_kernel(method_name: str, site: str):
    def kernel(self, *args, **kwargs):
        out = getattr(self._inner, method_name)(*args, **kwargs)
        return self._maybe_corrupt(out, site)

    kernel.__name__ = method_name
    return kernel


for _name, _site in _KERNEL_SITES.items():
    setattr(FaultyBackend, _name, _wrapped_kernel(_name, _site))
del _name, _site

#: engine -> its proxy; the proxy pins the engine, so identity keys are safe
_PROXIES: dict = {}


def _proxy_for(inner) -> FaultyBackend:
    """The one :class:`FaultyBackend` wrapping ``inner`` (the backends hook)."""
    proxy = _PROXIES.get(inner)
    if proxy is None:
        proxy = _PROXIES.setdefault(inner, FaultyBackend(inner))
    return proxy


# ------------------------------------------------------------------ #
# Activation
# ------------------------------------------------------------------ #
def active_plan() -> FaultPlan | None:
    """The currently installed fault plan, or ``None``."""
    return _PLAN


def install_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide (``None`` deactivates); returns the old one."""
    global _PLAN
    with _LOCK:
        previous = _PLAN
        _PLAN = plan
        _set_backend_wrapper(_proxy_for if plan is not None else None)
    return previous


@contextmanager
def inject(plan: FaultPlan):
    """Scoped fault session: install ``plan``, yield it, restore on exit."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def maybe_fail_worker(site: str = "dispatcher.worker") -> None:
    """Raise :class:`InjectedFault` when the active plan schedules one here."""
    plan = _PLAN
    if plan is None:
        return
    call = plan.worker_fires(site)
    if call is not None:
        raise InjectedFault(f"injected worker failure at {site} (call {call})",
                            site=site, call=call)


def maybe_kill_process(site: str = "gateway.worker") -> None:
    """Hard-exit the calling process when the active plan schedules a kill.

    ``os._exit`` (no cleanup, no exception) — the point is to present the
    gateway with a *real* worker death: a closed queue and a dead pid, not a
    pickled traceback.  No-op without an active plan or with ``kill_rate=0``.
    """
    plan = _PLAN
    if plan is None:
        return
    if plan.kill_fires(site) is not None:
        os._exit(86)


def maybe_hang(site: str = "gateway.worker", wedge=None) -> float:
    """Wedge the caller when the active plan schedules a hang at this call.

    Models a whole-process stall (a C-level deadlock, a GIL-holding loop):
    ``wedge(duration)``, when given, is invoked *before* the sleep so the
    worker's heartbeat thread stops ticking for the duration — a plain
    latency injection would keep heartbeating and must NOT be classified as
    a hang by the watchdog.  Returns the seconds slept (0.0 when idle).
    """
    plan = _PLAN
    if plan is None:
        return 0.0
    duration = plan.hang_fires(site)
    if duration is None:
        return 0.0
    if wedge is not None:
        wedge(duration)
    time.sleep(duration)
    return duration


def maybe_delay(site: str = "dispatcher.latency") -> None:
    """Sleep when the active plan schedules latency at this call."""
    plan = _PLAN
    if plan is None:
        return
    duration = plan.delay_fires(site)
    if duration is not None:
        time.sleep(duration)


def maybe_net(site: str = "net.link") -> tuple[str | None, float]:
    """Network-fault decision for the frame about to cross ``site``.

    ``(event, delay_seconds)`` — ``event`` is ``"drop"``, ``"dup"``,
    ``"disconnect"``, or ``None``; the transport owns applying it (skip the
    send, send twice, tear the socket down).  ``(None, 0.0)`` when idle.
    """
    plan = _PLAN
    if plan is None:
        return None, 0.0
    return plan.net_fires(site)


def install_from_env(spec: str | None = None) -> FaultPlan | None:
    """Parse ``REPRO_FAULTS`` (or ``spec``) and install the described plan.

    Format: comma-separated ``key=value`` pairs — ``seed``, ``rate``,
    ``sites`` (``+``-separated), ``kinds`` (``+``-separated),
    ``worker_rate``, ``latency``, ``latency_rate``, ``kill_rate``,
    ``hang_rate``, ``hang_ms``, ``drop_rate``, ``dup_rate``,
    ``disconnect_rate``, ``net_delay_ms``, ``max`` — e.g.
    ``REPRO_FAULTS="seed=7,rate=0.02,sites=spmv+trsv,kinds=nan"``.
    A bare truthy value (``"1"``) installs the defaults.
    """
    spec = (os.environ.get("REPRO_FAULTS", "") if spec is None else spec).strip()
    if not spec or spec.lower() in ("0", "off", "false", "no"):
        return None
    kwargs: dict = {}
    if spec.lower() not in ("1", "on", "true", "yes"):
        for pair in spec.split(","):
            key, _, value = pair.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key in ("seed",):
                kwargs["seed"] = int(value)
            elif key in ("rate", "worker_rate", "latency", "latency_rate",
                         "kill_rate", "hang_rate", "hang_ms", "drop_rate",
                         "dup_rate", "disconnect_rate", "net_delay_ms"):
                kwargs[key] = float(value)
            elif key == "sites":
                kwargs["sites"] = tuple(value.split("+"))
            elif key == "kinds":
                kwargs["kinds"] = tuple(value.split("+"))
            elif key in ("max", "max_faults"):
                kwargs["max_faults"] = int(value)
            else:
                raise ValueError(f"unknown REPRO_FAULTS key {key!r}")
    plan = FaultPlan(**kwargs)
    install_plan(plan)
    return plan


# env activation at import: `import repro.faults` is the opt-in
install_from_env()
