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

A kernel that runs thousands of times per solve on the same operands records
through a precomputed :class:`Traffic` instead: its call counts, bytes and
flops are resolved once, and :func:`record` adds them to every active scope
and the global counter in one pass.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from ..precision import Precision, as_precision

__all__ = [
    "Traffic",
    "TrafficCounter",
    "counting",
    "counters_disabled",
    "counters_enabled",
    "current_counter",
    "kernel_traffic",
    "measuring",
    "record",
    "record_bytes",
    "record_flops",
    "record_kernel",
    "reset_global_counter",
    "set_counters_enabled",
    "global_counter",
]


class Traffic(NamedTuple):
    """The traffic of one kernel call, precomputed and immutable.

    Every field holds plain ints: ``calls`` the ``(kernel, count)`` pairs,
    ``value_bytes`` the ``(precision, bytes)`` pairs, ``index_bytes`` the
    precision-independent index traffic and ``flops`` the
    ``(precision, flops)`` pairs.  Build one with :meth:`of`; :func:`record`
    adds it.
    """

    calls: tuple = ()
    value_bytes: tuple = ()
    index_bytes: int = 0
    flops: tuple = ()

    @classmethod
    def of(cls, calls=(), values=(), flops=()) -> "Traffic":
        """The record of a sequence of ``record_*`` calls: ``calls`` holds
        ``record_kernel``'s ``(kernel, count)`` arguments, ``values``
        ``record_bytes``' ``(precision, nbytes, index_bytes)`` and ``flops``
        ``record_flops``' ``(precision, nflops)``.  Each keeps its function's
        rule that a zero record records nothing, and entries of one key add
        up, in the order of their first appearance."""
        kernel_calls: dict = {}
        for kernel, count in calls:
            if count:
                kernel_calls[kernel] = kernel_calls.get(kernel, 0) + int(count)
        value_bytes: dict = {}
        index_bytes = 0
        for precision, nbytes, nindex in values:
            if nbytes or nindex:
                p = as_precision(precision)
                value_bytes[p] = value_bytes.get(p, 0) + int(nbytes)
                index_bytes += int(nindex)
        nflops: dict = {}
        for precision, count in flops:
            if count:
                p = as_precision(precision)
                nflops[p] = nflops.get(p, 0) + int(count)
        return cls(tuple(kernel_calls.items()), tuple(value_bytes.items()),
                   index_bytes, tuple(nflops.items()))

    @classmethod
    def of_counter(cls, counter: "TrafficCounter") -> "Traffic":
        """Everything ``counter`` holds, as one record: replaying it with
        :func:`record` leaves every target as the recorded calls would."""
        return cls(tuple(counter.kernel_calls.items()),
                   tuple(counter.bytes_by_precision.items()), counter.index_bytes,
                   tuple(counter.flops_by_precision.items()))

    def then(self, other: "Traffic") -> "Traffic":
        """This record followed by ``other``, as one (a fused kernel's two
        halves)."""
        merged = []
        for mine, theirs in ((self.calls, other.calls),
                             (self.value_bytes, other.value_bytes),
                             (self.flops, other.flops)):
            totals = dict(mine)
            for key, count in theirs:
                totals[key] = totals.get(key, 0) + count
            merged.append(tuple(totals.items()))
        return Traffic(merged[0], merged[1], self.index_bytes + other.index_bytes,
                       merged[2])


@functools.lru_cache(maxsize=4096)
def kernel_traffic(kernel: str, count: int, values: tuple = (),
                   flops: tuple = ()) -> Traffic:
    """The :class:`Traffic` of ``count`` calls of ``kernel`` that move
    ``values`` — ``(precision, bytes)`` pairs — and compute ``flops`` —
    ``(precision, flops)`` pairs; built once per argument tuple and cached,
    so a kernel records it with one :func:`record`."""
    return Traffic.of(calls=[(kernel, count)],
                      values=[(p, nbytes, 0) for p, nbytes in values], flops=flops)


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
        #: every counter a record goes to: the stack, then the global one
        self.targets: tuple[TrafficCounter, ...] = (self.global_counter,)
        self.enabled: bool = _DEFAULT_ENABLED

    def push(self, counter: TrafficCounter) -> None:
        self.stack.append(counter)
        self.targets = (*self.stack, self.global_counter)

    def pop(self) -> None:
        self.stack.pop()
        self.targets = (*self.stack, self.global_counter)


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
    _STACK.push(counter)
    try:
        yield counter
    finally:
        _STACK.pop()
        set_counters_enabled(previous_enabled)


@contextmanager
def measuring():
    """Scope whose traffic goes to a fresh counter *only* — not to the
    enclosing scopes, nor to the global counter — with recording on
    whatever this thread's setting: what a computation would record,
    learnt without recording it.  Yields the counter; replay it with
    ``record(Traffic.of_counter(counter))``."""
    state = _STACK
    saved = state.stack, state.global_counter, state.targets, state.enabled
    counter = TrafficCounter()
    state.stack, state.global_counter = [], counter
    state.targets, state.enabled = (counter,), True
    try:
        yield counter
    finally:
        state.stack, state.global_counter, state.targets, state.enabled = saved


def record(traffic: Traffic) -> None:
    """Add a precomputed :class:`Traffic` record to every active scope and
    to the global counter: one pass, no per-field coercion."""
    state = _STACK
    if not state.enabled:
        return
    calls, value_bytes, index_bytes, flops = traffic
    for counter in state.targets:
        totals = counter.kernel_calls
        for kernel, count in calls:
            totals[kernel] = totals.get(kernel, 0) + count
        totals = counter.bytes_by_precision
        for p, nbytes in value_bytes:
            totals[p] = totals.get(p, 0) + nbytes
        counter.index_bytes += index_bytes
        totals = counter.flops_by_precision
        for p, count in flops:
            totals[p] = totals.get(p, 0) + count


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
