"""Size- and age-bounded pruning of the persistent artifact store.

A long-lived serving host accretes artifacts without bound: every new
operator fingerprint adds ILU(0) factors and level schedules that nothing
ever deletes — and every ``ShardServer`` sharing
the store warm-starts from, and writes back to, it.  This module bounds it:

* :func:`gc` — one pruning pass over ``REPRO_ARTIFACTS``: first drop
  artifacts older than the age bound, then drop least-recently-*used*
  artifacts until the store fits the size bound.  Recency is the file
  mtime, which :func:`~repro.cache.load_arrays` touches on every hit — the
  on-disk LRU clock.  Returns a report and counts into
  :func:`~repro.cache.cold_start_stats` (``gc`` section).
* ``REPRO_ARTIFACTS_MAX_MB`` / ``REPRO_ARTIFACTS_MAX_AGE_DAYS`` — the
  default bounds (unset = unbounded, today's behavior).
* :func:`maybe_auto_gc` — the write-path hook: every
  :data:`AUTO_GC_EVERY` stores, run a pass with the configured bounds.
  A no-op unless at least one bound is configured, so the store never
  pays scan time by surprise.

Deleting an artifact is always safe — the store's contract is that any
load can miss and the caller recomputes — so GC can never cost
correctness, only warm-start time.
"""

from __future__ import annotations

import os
import threading
import time

from . import store as _store

__all__ = [
    "AUTO_GC_EVERY",
    "configured_max_age_days",
    "configured_max_mb",
    "gc",
    "maybe_auto_gc",
]

ENV_MAX_MB = "REPRO_ARTIFACTS_MAX_MB"
ENV_MAX_AGE_DAYS = "REPRO_ARTIFACTS_MAX_AGE_DAYS"

#: stores between automatic GC passes (the write path amortizes the scan)
AUTO_GC_EVERY = 32

_AUTO_LOCK = threading.Lock()
_STORES_SINCE_GC = 0


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be a number; got {raw!r}") from exc
    return value if value > 0 else None


def configured_max_mb() -> float | None:
    """The ``REPRO_ARTIFACTS_MAX_MB`` size bound, or ``None`` (unbounded)."""
    return _env_float(ENV_MAX_MB)


def configured_max_age_days() -> float | None:
    """The ``REPRO_ARTIFACTS_MAX_AGE_DAYS`` age bound, or ``None``."""
    return _env_float(ENV_MAX_AGE_DAYS)


def _scan(base: str) -> list[tuple[str, int, float]]:
    """Every artifact under ``base`` as ``(path, size, mtime)``."""
    found = []
    try:
        kinds = os.listdir(base)
    except OSError:
        return found
    for kind in kinds:
        directory = os.path.join(base, kind)
        if not os.path.isdir(directory):
            continue
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        for name in names:
            if not name.endswith(".npz"):
                continue
            path = os.path.join(directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            found.append((path, st.st_size, st.st_mtime))
    return found


def gc(max_mb: float | None = None, max_age_days: float | None = None,
       dry_run: bool = False) -> dict:
    """One pruning pass over the active artifact directory.

    ``max_mb`` / ``max_age_days`` default to the environment bounds; passing
    explicit values overrides them for this call.  With neither bound the
    pass only scans (useful as a du).  ``dry_run=True`` reports what a real
    pass would remove without deleting anything.

    Returns ``{"enabled", "scanned", "bytes", "removed", "removed_bytes",
    "kept", "kept_bytes", "dry_run"}`` and, for a real pass, adds the
    removals to ``cold_start_stats()["gc"]``.
    """
    if max_mb is None:
        max_mb = configured_max_mb()
    if max_age_days is None:
        max_age_days = configured_max_age_days()
    base = _store.artifacts_dir()
    report = {"enabled": base is not None, "scanned": 0, "bytes": 0,
              "removed": 0, "removed_bytes": 0, "kept": 0, "kept_bytes": 0,
              "dry_run": bool(dry_run)}
    if base is None:
        return report
    entries = _scan(base)
    report["scanned"] = len(entries)
    report["bytes"] = sum(size for _, size, _ in entries)

    now = time.time()
    doomed: list[tuple[str, int]] = []
    survivors: list[tuple[str, int, float]] = []
    if max_age_days is not None:
        cutoff = now - max_age_days * 86400.0
        for path, size, mtime in entries:
            (doomed.append((path, size)) if mtime < cutoff
             else survivors.append((path, size, mtime)))
    else:
        survivors = entries

    if max_mb is not None:
        budget = max_mb * 1024.0 * 1024.0
        total = sum(size for _, size, _ in survivors)
        # oldest-touch first: load_arrays bumps mtime on every hit, so
        # sorting by mtime is sorting by recency of *use*
        survivors.sort(key=lambda entry: entry[2])
        kept = []
        for path, size, mtime in survivors:
            if total > budget:
                doomed.append((path, size))
                total -= size
            else:
                kept.append((path, size, mtime))
        survivors = kept

    for path, size in doomed:
        if not dry_run:
            try:
                os.unlink(path)
            except OSError:
                continue
        report["removed"] += 1
        report["removed_bytes"] += size
    report["kept"] = len(survivors)
    report["kept_bytes"] = sum(size for _, size, _ in survivors)

    if not dry_run and report["removed"]:
        with _store._LOCK:
            stats_gc = _store._STATS["gc"]
            stats_gc["runs"] += 1
            stats_gc["removed"] += report["removed"]
            stats_gc["removed_bytes"] += report["removed_bytes"]
    elif not dry_run:
        with _store._LOCK:
            _store._STATS["gc"]["runs"] += 1
    return report


def maybe_auto_gc() -> None:
    """Write-path hook: run :func:`gc` every :data:`AUTO_GC_EVERY` stores.

    A no-op unless a size or age bound is configured in the environment, so
    unbounded deployments never pay the scan.
    """
    global _STORES_SINCE_GC
    if configured_max_mb() is None and configured_max_age_days() is None:
        return
    with _AUTO_LOCK:
        _STORES_SINCE_GC += 1
        if _STORES_SINCE_GC < AUTO_GC_EVERY:
            return
        _STORES_SINCE_GC = 0
    gc()
