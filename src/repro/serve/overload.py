"""Brownout controller: the serving tier's graceful-degradation policy.

The serving doors already *survive* failure (the recovery ladder, circuit
breakers, retry and failover); this module decides how they behave
*before* failure, when load approaches capacity.  The
:class:`BrownoutController` is a hysteresis state machine::

    NORMAL ──pressure high──► BROWNOUT ──pressure higher──► SHED
       ▲                          │                           │
       └────── pressure low ──────┴────── pressure lower ─────┘

driven by signals the serving layer already tracks — queue fill against
``max_queue``, deadline-miss and breaker-trip rates from the recovery
counters, worker-pool occupancy — and degrading service progressively:

* **BROWNOUT** — requests submitted with ``degradable=True`` start one
  precision tier lower (``fp64``→``fp32``→``fp16``,
  :func:`repro.core.recovery.degraded_variant`).  The PR 6 recovery ladder
  stays active on the degraded sibling, so a solve that stagnates at the
  cheaper tier re-escalates — converged results stay correct, brownout only
  trades iterations for per-iteration cost.  Opportunistic warm-ups, the
  background work that competes with serving, pause
  (:meth:`BrownoutController.suppress_background`).
* **SHED** — additionally, requests below ``shed_priority_floor`` are
  refused at admission with :class:`~repro.serve.LoadShed` before they cost
  any queue slot.

Hysteresis discipline: entry thresholds sit strictly above exit thresholds
and every transition requires ``dwell`` (up) or ``recover_dwell`` (down)
consecutive observations, so a *constant* pressure signal can never
oscillate the state — it climbs to its fixed point and stays (property
tested).  Every transition is recorded as a structured, counted event
surfaced under ``stats.summary()["overload"]``.

The controller is enabled by default; ``REPRO_OVERLOAD=0`` (or
``overload=False`` at construction) restores the pre-PR 9 hard
``max_queue`` wall bit-for-bit.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "BrownoutConfig",
    "BrownoutController",
    "BrownoutTransition",
    "overload_enabled",
    "resolve_controller",
]

#: state names, in escalation order (indices are the machine's levels)
STATES = ("normal", "brownout", "shed")


def overload_enabled() -> bool:
    """Whether the brownout controller is on by default (``REPRO_OVERLOAD``)."""
    return os.environ.get("REPRO_OVERLOAD", "1").strip().lower() not in (
        "0", "off", "false", "no")


@dataclass(frozen=True)
class BrownoutConfig:
    """Thresholds and dwell counts for the hysteresis state machine.

    Entry thresholds must sit strictly above the matching exit thresholds
    (validated) — that gap, plus the dwell counts, is what makes the machine
    oscillation-free on any constant pressure signal.

    ``miss_high`` / ``trip_high`` normalize the rate signals: a windowed
    deadline-miss fraction of ``miss_high`` (or ``trip_high`` breaker trips
    in the window) reads as full pressure on that signal.  ``occupancy_weight``
    discounts pool occupancy — a fully busy pool is healthy steady state, so
    occupancy alone (weighted 0.5 by default) can never cross the brownout
    entry threshold without a second signal.
    """

    enter_brownout: float = 0.75
    exit_brownout: float = 0.45
    enter_shed: float = 0.92
    exit_shed: float = 0.70
    dwell: int = 3
    recover_dwell: int = 8
    window: int = 32
    shed_priority_floor: int = 1
    degrade: bool = True
    miss_high: float = 0.25
    trip_high: float = 3.0
    occupancy_weight: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.exit_brownout < self.enter_brownout <= 1.0):
            raise ValueError("need 0 <= exit_brownout < enter_brownout <= 1")
        if not (0.0 <= self.exit_shed < self.enter_shed <= 1.0):
            raise ValueError("need 0 <= exit_shed < enter_shed <= 1")
        if self.enter_brownout > self.enter_shed:
            raise ValueError("enter_brownout must not exceed enter_shed")
        if self.exit_brownout > self.exit_shed:
            raise ValueError("exit_brownout must not exceed exit_shed")
        if self.dwell < 1 or self.recover_dwell < 1:
            raise ValueError("dwell counts must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass
class BrownoutTransition:
    """One state change, as a structured event."""

    observation: int            # observation count at the transition
    from_state: str
    to_state: str
    pressure: float

    def summary(self) -> dict:
        return {"observation": self.observation, "from": self.from_state,
                "to": self.to_state, "pressure": round(self.pressure, 4)}


@dataclass
class _Window:
    """Rolling per-observation deltas of the cumulative failure counters."""

    misses: deque = field(default_factory=deque)
    trips: deque = field(default_factory=deque)
    requests: deque = field(default_factory=deque)
    last: tuple[int, int, int] = (0, 0, 0)


class BrownoutController:
    """Hysteresis NORMAL→BROWNOUT→SHED machine over serving pressure.

    Call :meth:`observe` with the current signals (the owning dispatcher
    does this under its lock on every submit and completion); read the
    policy via :meth:`admits`, :meth:`should_degrade`, and
    :meth:`suppress_background`.  Not internally locked — the owner's lock
    is the synchronization, exactly like ``DispatchStats``.
    """

    #: transitions kept verbatim for the stats summary (counters never cap)
    _KEEP_TRANSITIONS = 16

    def __init__(self, config: BrownoutConfig | None = None) -> None:
        self.config = config or BrownoutConfig()
        self._level = 0
        self._above = 0             # consecutive observations above entry
        self._below = 0             # consecutive observations below exit
        self._observations = 0
        self._window = _Window()
        self.pressure = 0.0
        self.transitions: list[BrownoutTransition] = []
        self.transition_count = 0
        self.entries = {"normal": 0, "brownout": 0, "shed": 0}

    # -------------------------------------------------------------- #
    @property
    def state(self) -> str:
        return STATES[self._level]

    def admits(self, priority: int) -> bool:
        """Whether a request at ``priority`` is admitted in the current state."""
        return (self._level < 2
                or priority >= self.config.shed_priority_floor)

    def should_degrade(self) -> bool:
        """Whether degradable requests should start one precision tier lower."""
        return self._level >= 1 and self.config.degrade

    def suppress_background(self) -> bool:
        """Whether opportunistic warm-ups should pause."""
        return self._level >= 1

    # -------------------------------------------------------------- #
    def _windowed_rates(self, misses: int, trips: int,
                        requests: int) -> tuple[float, float]:
        w = self._window
        d_miss = max(0, misses - w.last[0])
        d_trip = max(0, trips - w.last[1])
        d_req = max(0, requests - w.last[2])
        w.last = (misses, trips, requests)
        for dq, val in ((w.misses, d_miss), (w.trips, d_trip),
                        (w.requests, d_req)):
            dq.append(val)
            if len(dq) > self.config.window:
                dq.popleft()
        total_req = sum(w.requests)
        miss_rate = sum(w.misses) / max(1, total_req)
        return miss_rate, float(sum(w.trips))

    def observe(self, queue_fill: float = 0.0, occupancy: float = 0.0,
                deadline_misses: int = 0, breaker_trips: int = 0,
                requests: int = 0) -> str:
        """Fold one snapshot of the serving signals into the machine.

        ``queue_fill`` and ``occupancy`` are instantaneous fractions in
        [0, 1]; ``deadline_misses`` / ``breaker_trips`` / ``requests`` are
        the *cumulative* stats counters — the controller windows their
        deltas itself.  Returns the (possibly new) state name.
        """
        cfg = self.config
        miss_rate, trips_in_window = self._windowed_rates(
            deadline_misses, breaker_trips, requests)
        pressure = max(
            min(1.0, max(0.0, queue_fill)),
            min(1.0, max(0.0, occupancy)) * cfg.occupancy_weight,
            min(1.0, miss_rate / cfg.miss_high) if cfg.miss_high > 0 else 0.0,
            min(1.0, trips_in_window / cfg.trip_high) if cfg.trip_high > 0 else 0.0,
        )
        self.pressure = pressure
        self._observations += 1

        enter = (cfg.enter_brownout, cfg.enter_shed)
        exit_ = (cfg.exit_brownout, cfg.exit_shed)
        # climb: pressure above the *next* level's entry threshold
        if self._level < 2 and pressure >= enter[self._level]:
            self._above += 1
        else:
            self._above = 0
        # recover: pressure below the *current* level's exit threshold
        if self._level > 0 and pressure <= exit_[self._level - 1]:
            self._below += 1
        else:
            self._below = 0

        if self._above >= cfg.dwell:
            self._move(self._level + 1)
        elif self._below >= cfg.recover_dwell:
            self._move(self._level - 1)
        return self.state

    def _move(self, level: int) -> None:
        previous = self.state
        self._level = level
        self._above = 0
        self._below = 0
        self.entries[self.state] += 1
        self.transitions.append(BrownoutTransition(
            observation=self._observations, from_state=previous,
            to_state=self.state, pressure=self.pressure))
        self.transition_count += 1
        if len(self.transitions) > self._KEEP_TRANSITIONS:
            del self.transitions[:-self._KEEP_TRANSITIONS]

    def summary(self) -> dict:
        """Structured overload state for ``stats.summary()["overload"]``."""
        return {
            "state": self.state,
            "pressure": round(self.pressure, 4),
            "observations": self._observations,
            "transitions": self.transition_count,
            "entries": dict(self.entries),
            "last_transitions": [t.summary() for t in self.transitions],
        }


def resolve_controller(overload) -> BrownoutController | None:
    """Normalize a dispatcher's ``overload=`` argument to a controller.

    ``None`` → a fresh default controller when ``REPRO_OVERLOAD`` allows it;
    ``False`` → disabled (the legacy hard admission wall); ``True`` → a
    fresh default controller regardless of the environment; a
    :class:`BrownoutController` (or :class:`BrownoutConfig`) instance is
    used as given.
    """
    if overload is None:
        return BrownoutController() if overload_enabled() else None
    if overload is False:
        return None
    if overload is True:
        return BrownoutController()
    if isinstance(overload, BrownoutConfig):
        return BrownoutController(overload)
    return overload
