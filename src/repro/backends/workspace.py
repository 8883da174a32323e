"""Reusable scratch-array arena for the kernel engine.

The hot paths of the solver stack (FGMRES cycles, Richardson sweeps, SpMV)
used to reallocate every intermediate array on every call: the Krylov basis,
the per-iteration correction vectors, the ``values * x[indices]`` product
array of each SpMV.  A :class:`Workspace` is a small arena that hands out the
same buffer for the same ``(name, dtype)`` request, so a solver level
or a matrix can reuse its scratch storage across thousands of invocations.

Ownership conventions:

* Each FGMRES level owns one workspace (the Krylov basis is per-level state).
* Each sparse matrix / triangular factor owns one workspace for its SpMV /
  substitution scratch, created lazily on the first fast-backend call.
* Buffers returned by :meth:`get` are *transient*: they are valid until the
  next ``get`` with the same name.  Kernels must never return an arena buffer
  to a caller — results are always freshly allocated.
* :meth:`cast` caches a dtype-converted copy of a source array; it assumes the
  source is immutable after construction (true for all matrix values in this
  codebase — ``CSRMatrix`` sorts in the constructor and never mutates after).
* A single :class:`Workspace` is not thread-safe.  Objects that own scratch
  state (matrices, triangular factors, FGMRES levels) therefore hold a
  :class:`ThreadLocalWorkspace`, giving each thread its own arena so sharing
  one matrix or solver across worker threads stays safe (as it was before the
  kernel engine existed).  Note that some solver levels carry *algorithmic*
  shared state regardless (the adaptive Richardson weights are global across
  invocations by design) — the arenas don't change that.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["ScratchOwner", "ThreadLocalWorkspace", "Workspace",
           "arena_alloc_count"]

#: process-wide count of fresh arena arrays ever created (all workspaces);
#: the allocation-regression tests assert it stays flat across warm
#: steady-state iterations.  Lock-guarded: workspaces are per-thread but the
#: counter is shared, and dispatcher workers warm their arenas concurrently.
_TOTAL_ALLOCS = 0
_ALLOC_LOCK = threading.Lock()


def arena_alloc_count() -> int:
    """Total arena-array creations across every workspace in the process."""
    return _TOTAL_ALLOCS


def _count_alloc() -> None:
    global _TOTAL_ALLOCS
    with _ALLOC_LOCK:
        _TOTAL_ALLOCS += 1


class Workspace:
    """Arena of reusable scratch arrays keyed by ``(name, dtype)``."""

    __slots__ = ("_buffers", "_casts", "_memos", "_views", "alloc_count")

    def __init__(self) -> None:
        self._buffers: dict = {}
        self._casts: dict = {}
        self._memos: dict = {}
        self._views: dict = {}
        #: fresh arena arrays created so far — a *stable* count after warm-up
        #: is what the allocation-regression tests assert (see
        #: ``tests/test_plans_alloc.py``)
        self.alloc_count: int = 0

    def get(self, name: str, shape, dtype, zero: bool = False) -> np.ndarray:
        """A reusable ``shape`` buffer; contents are arbitrary unless ``zero``.

        The storage is keyed by ``(name, dtype)`` and its size is *capacity*,
        not identity: the buffer is a flat array viewed as
        ``[:size].reshape(shape)``, so a smaller request re-slices it and a
        larger one grows it in place of the old.  One name therefore holds
        one allocation whatever the batch width, slab size or deflated
        column count — callers must not keep a view of a name across a
        second request for it.  The hottest call sites request the same
        shape on every iteration, so the last view of each name is cached
        and returned as is.
        """
        if not isinstance(shape, (tuple, list)):
            shape = (shape,)
        last = self._views.get(name)
        if last is not None and last[0] == shape and last[1] == dtype:
            view = last[2]
        else:
            dims = tuple(int(s) for s in shape)
            dt = np.dtype(dtype)
            size = math.prod(dims)
            flat = self._buffers.get((name, dt))
            if flat is None or flat.size < size:
                flat = np.zeros(size, dtype=dt) if zero else np.empty(size, dtype=dt)
                self._buffers[(name, dt)] = flat
                self.alloc_count += 1
                _count_alloc()
                zero = False
            view = flat[:size].reshape(dims)
            self._views[name] = (shape, dtype, view)
        if zero:
            view.fill(0)
        return view

    def cast(self, name: str, array: np.ndarray, dtype) -> np.ndarray:
        """A cached copy of ``array`` converted to ``dtype``.

        The source must not be mutated after the first call; the cache is
        keyed by name and target dtype only.
        """
        dt = np.dtype(dtype)
        if array.dtype == dt:
            return array
        key = (name, dt)
        cached = self._casts.get(key)
        if cached is None or cached.shape != array.shape:
            cached = array.astype(dt)
            self._casts[key] = cached
            self.alloc_count += 1
            _count_alloc()
        return cached

    def memo(self, key, factory):
        """Compute-once cache for derived arrays (gather plans, permutations)."""
        value = self._memos.get(key)
        if value is None:
            value = factory()
            self._memos[key] = value
            self.alloc_count += 1
            _count_alloc()
        return value

    def nbytes(self) -> int:
        """Total bytes currently held by the arena (buffers + cast caches)."""
        total = sum(b.nbytes for b in self._buffers.values())
        total += sum(c.nbytes for c in self._casts.values())
        total += sum(m.nbytes for m in self._memos.values() if hasattr(m, "nbytes"))
        return total

    def clear(self) -> None:
        self._buffers.clear()
        self._views.clear()
        self._casts.clear()
        self._memos.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Workspace(buffers={len(self._buffers)}, casts={len(self._casts)}, "
                f"nbytes={self.nbytes()})")


class ScratchOwner:
    """Mixin for objects owning lazily created per-thread scratch arenas.

    Subclasses must declare a ``_scratch`` attribute (or slot) initialized to
    ``None``; :meth:`scratch` attaches a :class:`ThreadLocalWorkspace` on
    first use so the pattern (and any future change to it) lives in one place.
    """

    __slots__ = ()

    def scratch(self) -> Workspace:
        """The calling thread's scratch workspace for this object."""
        tls = self._scratch
        if tls is None:
            tls = self._scratch = ThreadLocalWorkspace()
        return tls.workspace


class ThreadLocalWorkspace(threading.local):
    """One :class:`Workspace` per accessing thread (see module docstring)."""

    def __init__(self) -> None:
        self.workspace = Workspace()

    def __reduce__(self):
        # Scratch contents are re-derivable caches; pickling/deepcopying an
        # object that lazily attached one must not fail on the thread-local —
        # reconstruct as a fresh, empty arena.
        return (ThreadLocalWorkspace, ())
