"""Zero-copy shared-memory operator storage for the process-pool tier.

The process tier (:mod:`repro.par.procpool`, :class:`repro.serve.ShardedGateway`)
runs solves in worker *processes*.  Shipping a CSR matrix through a queue
would pickle its value and index arrays on every hop; instead the gateway
**publishes** each operator's defining arrays once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment keyed by the
operator's fingerprint, and workers **attach** the segment on first use —
their numpy arrays are views straight into the shared pages, so the hot path
pays zero copy and zero pickling for operator storage.  Only the tiny
*descriptor* (segment name + array layout + reconstruction metadata) ever
crosses the queue, and only once per (worker, operator).

Three pieces live here:

* **Packing** — :func:`publish_arrays` lays named arrays out back to back
  (64-byte aligned) in one fresh segment and returns the
  :class:`ShmDescriptor`; :func:`attach_arrays` maps a descriptor back into
  read-only numpy views in any process.  Views are marked read-only: shared
  operator storage is immutable by contract (matrices already are — the
  backends cache derived copies per process instead of mutating).
* **Operator payloads** — :func:`operator_payload` /
  :func:`operator_from_payload` convert the publishable operator families
  (:class:`~repro.sparse.CSRMatrix`, :class:`~repro.operators.AssembledOperator`,
  :class:`~repro.operators.StencilOperator`) to and from named-array form,
  carrying the cached fingerprint so workers never re-hash the values.
* **The registry** — :class:`ShmRegistry` is the publisher-side bookkeeping:
  fingerprint-keyed, refcounted (each routed shard holds a reference),
  LRU-evicting past ``max_published`` (unlink on eviction), unlink-all on
  :meth:`~ShmRegistry.close`.  ``stats()`` reports segment count and bytes
  for the gateway's ``procs`` stats section.

Lifecycle notes: a POSIX shm segment persists until *unlinked*, independent
of the creating process's mmap — unlinking while workers are still attached
is safe (the memory is freed when the last attachment closes), which is why
eviction can unlink eagerly and let workers close on the evict message.
Attaching processes unregister the segment from their ``resource_tracker``
(attachers don't own it; without this, the first worker to exit would unlink
segments the gateway still serves — CPython < 3.13 has no ``track=False``).
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ShmDescriptor",
    "ShmRegistry",
    "AttachedArrays",
    "publish_arrays",
    "attach_arrays",
    "operator_payload",
    "operator_from_payload",
    "segment_exists",
]

_ALIGN = 64
_PREFIX = "repro-shm"

#: segment names *created* by this process.  The resource tracker registers
#: a name on every open (create or attach); attachers must unregister (see
#: :func:`_untrack`), but the creator's single registration has to survive
#: same-process attaches (``segment_exists`` probes, local workers) or the
#: eventual ``unlink()`` double-unregisters and the tracker daemon logs a
#: KeyError at exit.
_OWNED: set[str] = set()

#: registry sequence numbers are process-global so two registries in one
#: process never mint the same segment name
_NEXT_SEQ = itertools.count(1)


def _inherited_tracker() -> bool:
    """Whether this process shares its parent's resource-tracker daemon.

    A process spawned by :mod:`multiprocessing` inherits the parent's
    tracker fd (set before any user code runs); a standalone process has no
    fd until its first registration.  Evaluated at import, before this
    module ever touches a segment — the basis for the :func:`_untrack`
    decision: with a *shared* daemon the publisher's registration already
    covers the segment and unregistering would orphan it; with a *private*
    daemon the attach-registration must be undone or this process's exit
    unlinks segments the publisher still serves (bpo-38119; CPython < 3.13
    has no ``track=False``).
    """
    try:
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._fd is not None
    except Exception:   # pragma: no cover - tracker internals vary
        return False


_SHARED_TRACKER = _inherited_tracker()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class ShmDescriptor:
    """Everything a worker needs to map one published array set.

    Pickles in O(bytes of metadata) — the arrays themselves never travel.
    ``meta`` carries the operator-reconstruction recipe (kind, shape,
    fingerprint, format hints); ``layout`` is ``(name, dtype str, shape,
    offset)`` per array.
    """

    segment: str
    layout: tuple
    meta: dict
    nbytes: int


def publish_arrays(arrays: dict[str, np.ndarray], meta: dict,
                   name: str | None = None) -> tuple[ShmDescriptor, shared_memory.SharedMemory]:
    """Create a segment holding ``arrays``; returns (descriptor, open segment).

    The caller (the registry) keeps the returned ``SharedMemory`` open for
    the publication's lifetime and is responsible for ``unlink``.
    """
    layout = []
    offset = 0
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = _aligned(offset)
        layout.append((key, str(arr.dtype), tuple(arr.shape), offset))
        offset += arr.nbytes
    total = max(1, offset)
    kwargs = {"create": True, "size": total}
    if name is not None:
        kwargs["name"] = name
    shm = shared_memory.SharedMemory(**kwargs)
    _OWNED.add(shm._name)
    for (key, dtype, shape, off), arr in zip(layout, arrays.values()):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        view[...] = arr
    descriptor = ShmDescriptor(segment=shm.name, layout=tuple(layout),
                               meta=dict(meta), nbytes=total)
    return descriptor, shm


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Unregister an *attached* segment from this process's resource tracker.

    Attachers don't own the segment; CPython < 3.13 registers it anyway and
    would unlink it when this process exits, yanking the pages out from
    under the publisher and its other workers.  A no-op when *this* process
    created the segment (the tracker cache is one set entry per name —
    unregistering here would orphan the creator's registration) and when
    the tracker daemon is shared with the publisher (spawned workers:
    the publisher's own registration is the same cache entry).
    """
    if _SHARED_TRACKER or shm._name in _OWNED:
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:   # pragma: no cover - tracker internals vary
        pass


class AttachedArrays:
    """A worker-side attachment: read-only views plus the mapping handle.

    ``close()`` releases the views and the mapping; it is best-effort — if a
    consumer still holds a view (a cached plan that wasn't dropped), the
    mapping stays open and ``close`` reports ``False`` so the caller can
    retry after clearing its caches.  Never unlinks: attachments don't own
    the segment.
    """

    def __init__(self, descriptor: ShmDescriptor) -> None:
        self._shm = shared_memory.SharedMemory(name=descriptor.segment)
        _untrack(self._shm)
        self.descriptor = descriptor
        self.arrays: dict[str, np.ndarray] = {}
        for key, dtype, shape, offset in descriptor.layout:
            view = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf,
                              offset=offset)
            view.flags.writeable = False
            self.arrays[key] = view
        # numpy does not hold the buffer export of ``ndarray(buffer=...)``,
        # so the mapping would unmap under a live view: close() checks these
        self._views = [weakref.ref(view) for view in self.arrays.values()]

    @property
    def nbytes(self) -> int:
        return self.descriptor.nbytes

    def close(self) -> bool:
        self.arrays = {}
        if self._shm is None:
            return True
        if any(ref() is not None for ref in self._views):
            return False
        try:
            self._shm.close()
        except BufferError:
            # a numpy view is still exported somewhere; the caller clears
            # its operator/plan caches and retries
            return False
        self._shm = None
        return True


def attach_arrays(descriptor: ShmDescriptor) -> AttachedArrays:
    """Map a published descriptor into read-only numpy views."""
    return AttachedArrays(descriptor)


def segment_exists(name: str) -> bool:
    """Whether the named segment is still linked (tests: leak/eviction checks)."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    _untrack(shm)
    shm.close()
    return True


# ---------------------------------------------------------------------- #
# Operator <-> named-array payloads
# ---------------------------------------------------------------------- #
def operator_payload(operator) -> tuple[dict[str, np.ndarray], dict] | None:
    """``(arrays, meta)`` describing ``operator``, or ``None`` if the family
    has no zero-copy representation (composites fall back to in-process
    execution at the gateway).

    The fingerprint rides in ``meta`` so the reconstruction never re-hashes
    the value arrays, and — for dispatcher grouping — reconstructed and
    original operators key identically.
    """
    from ..operators.assembled import AssembledOperator
    from ..operators.stencil import StencilOperator
    from ..sparse.csr import CSRMatrix

    if isinstance(operator, AssembledOperator):
        csr = operator.csr
        arrays = {"values": csr.values, "indices": csr.indices,
                  "indptr": csr.indptr}
        meta = {"kind": "assembled", "shape": csr.shape,
                "format": operator.format, "chunk_size": operator.chunk_size,
                "fingerprint": operator.fingerprint()}
        return arrays, meta
    if isinstance(operator, CSRMatrix):
        arrays = {"values": operator.values, "indices": operator.indices,
                  "indptr": operator.indptr}
        meta = {"kind": "csr", "shape": operator.shape,
                "fingerprint": operator.fingerprint()}
        return arrays, meta
    if isinstance(operator, StencilOperator):
        # offsets/values are stored pre-sorted by linear offset; the
        # constructor's stable re-sort is the identity, so the rebuilt
        # operator is entry-for-entry the original
        arrays = {"offsets": operator.offsets, "values": operator.values}
        meta = {"kind": "stencil", "dims": operator.dims,
                "precision": operator.precision.label,
                "fingerprint": operator.fingerprint()}
        return arrays, meta
    return None


def operator_from_payload(arrays: dict[str, np.ndarray], meta: dict):
    """Rebuild the published operator from mapped views, zero-copy.

    CSR index/value views are already contiguous and correctly typed, so
    the constructors keep them as-is — the rebuilt operator's storage *is*
    the shared segment.  The cached fingerprint is pre-seeded.
    """
    kind = meta["kind"]
    if kind in ("csr", "assembled"):
        from ..sparse.csr import CSRMatrix

        csr = CSRMatrix(arrays["values"], arrays["indices"], arrays["indptr"],
                        tuple(meta["shape"]))
        csr._fingerprint = meta["fingerprint"]
        if kind == "csr":
            return csr
        from ..operators.assembled import AssembledOperator

        return AssembledOperator(csr, format=meta["format"],
                                 chunk_size=meta["chunk_size"])
    if kind == "stencil":
        from ..operators.stencil import StencilOperator

        op = StencilOperator(meta["dims"], arrays["offsets"], arrays["values"],
                             precision=meta["precision"])
        op._fingerprint = meta["fingerprint"]
        return op
    raise ValueError(f"unknown shared-operator kind {kind!r}")


# ---------------------------------------------------------------------- #
# Publisher-side registry
# ---------------------------------------------------------------------- #
@dataclass
class _Publication:
    descriptor: ShmDescriptor
    shm: shared_memory.SharedMemory
    refs: int = 0


class ShmRegistry:
    """Refcounted, LRU-bounded registry of published operator segments.

    One per gateway.  ``publish`` is idempotent per key (the operator
    fingerprint) and bumps the entry to MRU; ``acquire``/``release`` track
    live references (in-flight batches, shards holding the operator), and
    eviction only unlinks unreferenced entries.  ``close`` unlinks
    everything — after it, :func:`segment_exists` is ``False`` for every
    segment the registry ever created (the leak check in the tests).
    """

    def __init__(self, max_published: int = 64) -> None:
        if max_published < 1:
            raise ValueError("max_published must be >= 1")
        self.max_published = int(max_published)
        self._entries: OrderedDict[str, _Publication] = OrderedDict()
        self._lock = threading.Lock()
        self._published = 0
        self._evicted = 0

    def publish(self, key: str, arrays: dict[str, np.ndarray],
                meta: dict) -> ShmDescriptor:
        """Publish (or re-touch) the array set under ``key``; returns the
        descriptor.  Evicts LRU unreferenced entries past ``max_published``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry.descriptor
            name = f"{_PREFIX}-{os.getpid()}-{next(_NEXT_SEQ)}-{key[:12]}"
        descriptor, shm = publish_arrays(arrays, meta, name=name)
        with self._lock:
            self._entries[key] = _Publication(descriptor, shm)
            self._published += 1
            evictable = [k for k, e in self._entries.items()
                         if e.refs <= 0 and k != key]
            doomed = []
            overflow = len(self._entries) - self.max_published
            for k in evictable[:max(0, overflow)]:
                doomed.append((k, self._entries.pop(k)))
                self._evicted += 1
        for _, entry in doomed:
            self._unlink(entry)
        return descriptor

    def descriptor(self, key: str) -> ShmDescriptor | None:
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry.descriptor

    def acquire(self, key: str) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.refs += 1

    def release(self, key: str) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.refs = max(0, entry.refs - 1)

    def evict(self, key: str) -> ShmDescriptor | None:
        """Unlink ``key``'s segment now (regardless of LRU position); returns
        its descriptor so the caller can tell attached workers to close."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._evicted += 1
        self._unlink(entry)
        return entry.descriptor

    @staticmethod
    def _unlink(entry: _Publication) -> None:
        name = entry.shm._name
        try:
            entry.shm.close()
            entry.shm.unlink()
        except FileNotFoundError:   # pragma: no cover - already gone
            pass
        _OWNED.discard(name)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def segments(self) -> list[str]:
        with self._lock:
            return [e.descriptor.segment for e in self._entries.values()]

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "published": len(self._entries),
                "bytes": sum(e.descriptor.nbytes for e in self._entries.values()),
                "lifetime_published": self._published,
                "evicted": self._evicted,
            }

    def close(self) -> None:
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            self._unlink(entry)
