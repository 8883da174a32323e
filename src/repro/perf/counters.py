"""Memory-traffic and operation counters.

The paper's Figures 1 and 2 report wall-clock speedups on bandwidth-bound
kernels.  In this reproduction the low-precision arithmetic is *emulated*, so
wall-clock time in Python cannot show the effect of halving the data size.
Instead, every kernel (SpMV, triangular solve, dot, axpy, ...) reports the
bytes it reads and writes, broken down by precision, into the counters defined
here; :mod:`repro.perf.machine` then converts that traffic into modeled time.

This mirrors the paper's own methodology: its Section 4.1 cost model (Eqs. 1-3)
is itself a pure memory-traffic model, and the experimental speedups track it.

Counters are hierarchical: a context-manager stack lets an experiment scope a
fresh counter around a solve while the kernels simply call the module-level
``record_*`` functions.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..precision import Precision, as_precision

__all__ = [
    "TrafficCounter",
    "counting",
    "counters_disabled",
    "counters_enabled",
    "current_counter",
    "record_bytes",
    "record_flops",
    "record_kernel",
    "reset_global_counter",
    "set_counters_enabled",
    "global_counter",
]


@dataclass
class TrafficCounter:
    """Accumulates bytes moved, flops and kernel invocations.

    Attributes
    ----------
    bytes_by_precision:
        Total bytes read + written, keyed by value precision.  Index traffic
        (int32 column indices / row pointers) is tracked separately under
        ``index_bytes`` because it is precision-independent.
    flops_by_precision:
        Floating-point operations, keyed by the compute precision.
    kernel_calls:
        Number of invocations per kernel name (``"spmv"``, ``"dot"``, ...).
    """

    bytes_by_precision: dict[Precision, int] = field(default_factory=dict)
    index_bytes: int = 0
    flops_by_precision: dict[Precision, int] = field(default_factory=dict)
    kernel_calls: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def add_bytes(self, precision: Precision, nbytes: int) -> None:
        p = as_precision(precision)
        self.bytes_by_precision[p] = self.bytes_by_precision.get(p, 0) + int(nbytes)

    def add_index_bytes(self, nbytes: int) -> None:
        self.index_bytes += int(nbytes)

    def add_flops(self, precision: Precision, nflops: int) -> None:
        p = as_precision(precision)
        self.flops_by_precision[p] = self.flops_by_precision.get(p, 0) + int(nflops)

    def add_call(self, kernel: str, count: int = 1) -> None:
        self.kernel_calls[kernel] = self.kernel_calls.get(kernel, 0) + count

    # ------------------------------------------------------------------ #
    @property
    def total_value_bytes(self) -> int:
        return sum(self.bytes_by_precision.values())

    @property
    def total_bytes(self) -> int:
        return self.total_value_bytes + self.index_bytes

    @property
    def total_flops(self) -> int:
        return sum(self.flops_by_precision.values())

    def bytes_for(self, precision: Precision | str) -> int:
        return self.bytes_by_precision.get(as_precision(precision), 0)

    def calls_for(self, kernel: str) -> int:
        return self.kernel_calls.get(kernel, 0)

    def low_precision_fraction(self) -> float:
        """Fraction of value traffic carried in fp16 — the paper's notion of
        "frequency of fp16 computations"."""
        total = self.total_value_bytes
        if total == 0:
            return 0.0
        return self.bytes_for(Precision.FP16) / total

    # ------------------------------------------------------------------ #
    def merge(self, other: "TrafficCounter") -> None:
        """Accumulate another counter into this one (used by the stack)."""
        for p, b in other.bytes_by_precision.items():
            self.add_bytes(p, b)
        self.index_bytes += other.index_bytes
        for p, f in other.flops_by_precision.items():
            self.add_flops(p, f)
        for k, c in other.kernel_calls.items():
            self.add_call(k, c)

    def copy(self) -> "TrafficCounter":
        out = TrafficCounter()
        out.merge(self)
        return out

    def reset(self) -> None:
        self.bytes_by_precision.clear()
        self.flops_by_precision.clear()
        self.kernel_calls.clear()
        self.index_bytes = 0

    def summary(self) -> dict:
        """Plain-dict summary convenient for reports and JSON dumps."""
        return {
            "bytes": {p.label: b for p, b in sorted(self.bytes_by_precision.items(), key=lambda kv: kv[0].label)},
            "index_bytes": self.index_bytes,
            "total_bytes": self.total_bytes,
            "flops": {p.label: f for p, f in sorted(self.flops_by_precision.items(), key=lambda kv: kv[0].label)},
            "kernel_calls": dict(sorted(self.kernel_calls.items())),
            "fp16_fraction": self.low_precision_fraction(),
        }


# Recording is on by default (the emulation methodology depends on it) but a
# production solve that only wants the answer can turn it off entirely: every
# ``record_*`` call then returns after a single boolean test, and the backends
# additionally skip the byte/flop bookkeeping arithmetic.  Set the environment
# variable ``REPRO_COUNTERS=0`` (or ``off``/``false``) to start disabled.
# The flag is thread-local, like the counter stack, so disabling recording in
# one thread never perturbs another thread's scoped measurements.
_DEFAULT_ENABLED = os.environ.get("REPRO_COUNTERS", "1").lower() not in (
    "0", "off", "false", "no")


class _CounterStack(threading.local):
    """Thread-local stack of active counters plus an always-on global counter."""

    def __init__(self) -> None:
        self.stack: list[TrafficCounter] = []
        self.global_counter = TrafficCounter()
        self.enabled: bool = _DEFAULT_ENABLED


_STACK = _CounterStack()


def counters_enabled() -> bool:
    """Whether traffic recording is active in this thread."""
    return _STACK.enabled


def set_counters_enabled(enabled: bool) -> bool:
    """Enable/disable traffic recording in this thread; returns the previous state."""
    previous = _STACK.enabled
    _STACK.enabled = bool(enabled)
    return previous


@contextmanager
def counters_disabled():
    """Scope with traffic recording switched off (zero instrumentation tax)."""
    previous = set_counters_enabled(False)
    try:
        yield
    finally:
        set_counters_enabled(previous)


def global_counter() -> TrafficCounter:
    """The process-wide counter that accumulates all traffic ever recorded."""
    return _STACK.global_counter


def reset_global_counter() -> None:
    _STACK.global_counter.reset()


def current_counter() -> TrafficCounter | None:
    """The innermost scoped counter, or ``None`` outside any ``counting()`` block."""
    return _STACK.stack[-1] if _STACK.stack else None


@contextmanager
def counting(counter: TrafficCounter | None = None):
    """Scope a counter: traffic recorded inside the block accumulates into it.

    Nested blocks all receive the traffic (a kernel inside two nested blocks
    contributes to both), which lets an experiment wrap a whole solve while a
    solver wraps just its preconditioner application.

    An explicit ``counting()`` scope expresses measurement intent, so it
    re-enables recording even when counters are globally disabled
    (``REPRO_COUNTERS=0`` / :func:`set_counters_enabled`); a nested
    :func:`counters_disabled` still wins inside the block.
    """
    counter = counter if counter is not None else TrafficCounter()
    previous_enabled = set_counters_enabled(True)
    _STACK.stack.append(counter)
    try:
        yield counter
    finally:
        _STACK.stack.pop()
        set_counters_enabled(previous_enabled)


def record_bytes(precision: Precision | str, nbytes: int, index_bytes: int = 0) -> None:
    """Record ``nbytes`` of value traffic in ``precision`` (+ optional index bytes).

    A zero record (an empty block's traffic) records nothing.
    """
    if not _STACK.enabled or not (nbytes or index_bytes):
        return
    p = as_precision(precision)
    for counter in _STACK.stack:
        counter.add_bytes(p, nbytes)
        if index_bytes:
            counter.add_index_bytes(index_bytes)
    _STACK.global_counter.add_bytes(p, nbytes)
    if index_bytes:
        _STACK.global_counter.add_index_bytes(index_bytes)


def record_flops(precision: Precision | str, nflops: int) -> None:
    if not _STACK.enabled or not nflops:
        return
    p = as_precision(precision)
    for counter in _STACK.stack:
        counter.add_flops(p, nflops)
    _STACK.global_counter.add_flops(p, nflops)


def record_kernel(kernel: str, count: int = 1) -> None:
    if not _STACK.enabled or not count:
        return
    for counter in _STACK.stack:
        counter.add_call(kernel, count)
    _STACK.global_counter.add_call(kernel, count)
