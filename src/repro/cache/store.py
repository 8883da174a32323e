"""Fingerprint-keyed on-disk artifact store for compiled setup products.

Cold start pays for work that is a pure function of the operator: ILU(0)/IC(0)
factor values and triangular level schedules.  This store persists those
artifacts under a directory named by the ``REPRO_ARTIFACTS`` environment
variable so a restarted process loads them instead of recomputing — the
serving analogue of a compiled-kernel cache.

Layout: ``<dir>/<kind>/<key>.npz`` with each payload carrying a format
version and the wall-clock cost (ms) of the computation it replaces.  Writes
go through a temp file + :func:`os.replace` so concurrent writers can only
ever produce complete files; loads tolerate *anything* — missing files,
truncated or corrupt payloads, version mismatches — by degrading to a miss
(the caller recomputes).  A corrupt cache can cost time, never correctness.

When ``REPRO_ARTIFACTS`` is unset the store is inert: every load misses
without touching the filesystem and every write is a no-op, reproducing the
uncached behavior exactly.
"""

from __future__ import annotations

import os
import tempfile
import threading
from hashlib import blake2b

import numpy as np

__all__ = [
    "ARTIFACT_VERSION",
    "artifacts_dir",
    "set_artifacts_dir",
    "artifacts_enabled",
    "artifact_key",
    "load_arrays",
    "store_arrays",
    "cold_start_stats",
    "reset_cold_start_stats",
]

#: bumped whenever a serialized payload's meaning changes; mismatched files
#: are treated as misses, never reinterpreted
ARTIFACT_VERSION = 1

ENV_VAR = "REPRO_ARTIFACTS"

_LOCK = threading.Lock()
_OVERRIDE: str | None = None

_STATS: dict = {}


def _fresh_stats() -> dict:
    return {"hits": 0, "misses": 0, "stores": 0, "errors": 0,
            "saved_ms": 0.0, "by_kind": {},
            "gc": {"runs": 0, "removed": 0, "removed_bytes": 0}}


_STATS = _fresh_stats()


def artifacts_dir() -> str | None:
    """The active artifact directory, or ``None`` when persistence is off."""
    if _OVERRIDE is not None:
        return _OVERRIDE or None
    path = os.environ.get(ENV_VAR, "").strip()
    return path or None


def set_artifacts_dir(path: str | None) -> str | None:
    """Override the artifact directory (process-wide); returns the old override.

    ``""`` disables persistence regardless of the environment; ``None``
    restores environment-variable control.
    """
    global _OVERRIDE
    with _LOCK:
        previous = _OVERRIDE
        _OVERRIDE = path
        return previous


def artifacts_enabled() -> bool:
    return artifacts_dir() is not None


def artifact_key(*parts) -> str:
    """Stable hex key from heterogeneous parts (strings, numbers, arrays)."""
    h = blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype).encode())
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _kind_stats(kind: str) -> dict:
    by_kind = _STATS["by_kind"]
    if kind not in by_kind:
        by_kind[kind] = {"hits": 0, "misses": 0, "stores": 0, "errors": 0}
    return by_kind[kind]


def _count(kind: str, event: str) -> None:
    with _LOCK:
        _STATS[event] += 1
        _kind_stats(kind)[event] += 1


def _artifact_path(base: str, kind: str, key: str) -> str:
    return os.path.join(base, kind, key + ".npz")


def load_arrays(kind: str, key: str) -> dict[str, np.ndarray] | None:
    """Load the arrays stored under ``(kind, key)``, or ``None`` on any miss.

    A hit credits the artifact's recorded compute cost to the
    ``saved_ms`` counter.  Corrupt or version-mismatched files count as
    ``errors`` *and* misses — the caller recomputes either way.
    """
    base = artifacts_dir()
    if base is None:
        return None
    path = _artifact_path(base, kind, key)
    try:
        with np.load(path, allow_pickle=False) as payload:
            version = payload["__version__"]
            if int(version[0]) != ARTIFACT_VERSION:
                _count(kind, "errors")
                _count(kind, "misses")
                return None
            cost_ms = float(payload["__cost_ms__"][0])
            arrays = {name: payload[name] for name in payload.files
                      if not name.startswith("__")}
    except FileNotFoundError:
        _count(kind, "misses")
        return None
    except Exception:
        # truncated zip, non-npz junk, missing metadata, unreadable file —
        # all degrade to recompute
        _count(kind, "errors")
        _count(kind, "misses")
        return None
    with _LOCK:
        _STATS["hits"] += 1
        _kind_stats(kind)["hits"] += 1
        _STATS["saved_ms"] += cost_ms
    try:
        # LRU touch: the GC prunes by mtime recency, so a hit must refresh
        # the artifact's clock or hot entries would age out with cold ones
        os.utime(path)
    except OSError:
        pass
    return arrays


def store_arrays(kind: str, key: str, arrays: dict[str, np.ndarray],
                 cost_ms: float = 0.0) -> bool:
    """Atomically persist ``arrays`` under ``(kind, key)``.

    ``cost_ms`` records what the computation cost, so future hits can report
    the setup time they saved.  Returns ``False`` (without raising) when
    persistence is disabled or the directory is unwritable.
    """
    base = artifacts_dir()
    if base is None:
        return False
    directory = os.path.join(base, kind)
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh,
                     __version__=np.array([ARTIFACT_VERSION], dtype=np.int64),
                     __cost_ms__=np.array([float(cost_ms)]),
                     **arrays)
        os.replace(tmp, _artifact_path(base, kind, key))
        tmp = None
    except OSError:
        _count(kind, "errors")
        return False
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    _count(kind, "stores")
    from .gc import maybe_auto_gc

    maybe_auto_gc()
    return True


def cold_start_stats() -> dict:
    """Snapshot of artifact-cache counters (totals plus per-kind)."""
    with _LOCK:
        out = dict(_STATS)
        out["by_kind"] = {k: dict(v) for k, v in _STATS["by_kind"].items()}
        out["gc"] = dict(_STATS["gc"])
        out["enabled"] = artifacts_enabled()
        return out


def reset_cold_start_stats() -> None:
    """Zero the counters (tests)."""
    global _STATS
    with _LOCK:
        _STATS = _fresh_stats()
