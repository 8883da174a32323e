"""Measured storage-format autotuning for compiled solve plans.

The cost model's analytic CSR-vs-sliced-ELL comparison (Section 4.1 traffic
constants) predicts which assembled layout moves fewer bytes — but bytes are
a proxy, and on an emulated software stack the gather patterns, padding and
kernel constants can flip the verdict.  This module *measures* instead: the
first plan compiled for a ``(matrix fingerprint, backend, precision)``
combination times a few warm-up applies of each candidate format and picks
the faster one.  The verdict is cached

* **in-process** — every later plan/solver for the same fingerprint reuses
  it instantly (the :class:`~repro.serve.BatchDispatcher`'s repeated-
  fingerprint traffic never re-measures), and
* **optionally on disk** — point ``REPRO_TUNE_CACHE`` at a JSON file and
  verdicts persist across processes (loaded lazily, written atomically).

``REPRO_TUNE=0`` disables measurement entirely; callers then fall back to
the analytic cost-model comparison, exactly as before this layer existed.
Measurement runs with counters disabled and ``record=False`` so tuning never
perturbs traffic accounting.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time

import numpy as np

from ..perf.counters import counters_disabled

__all__ = [
    "tuning_enabled",
    "set_tuning_enabled",
    "measurement_suppressed",
    "set_measurement_suppressed",
    "measured_assembled_format",
    "autotune_stats",
    "clear_autotune_cache",
]

_ENABLED = os.environ.get("REPRO_TUNE", "1").strip().lower() not in (
    "0", "off", "false", "no")

#: transient measurement pause (brownout): cached verdicts keep serving but
#: no new timing runs start while the serving tier is shedding load
_SUPPRESSED = False

#: matrices larger than this measure too slowly relative to their setup
#: budget; the analytic model handles them
_MAX_TUNE_NNZ = 50_000_000

#: below this the kernels finish in microseconds — timing is noise and the
#: format choice is irrelevant, so the analytic model decides
_MIN_TUNE_ROWS = 4096

#: timing repeats per candidate (after one warm-up apply)
_REPEATS = 3

_LOCK = threading.Lock()
_CACHE: dict[tuple, str] = {}
_DISK_LOADED = False
_STATS = {"measured": 0, "hits": 0, "disk_hits": 0}


def tuning_enabled() -> bool:
    """Whether measured format selection is active (``REPRO_TUNE``)."""
    return _ENABLED


def set_tuning_enabled(enabled: bool) -> bool:
    """Enable/disable measurement (process-wide); returns the old state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def measurement_suppressed() -> bool:
    """Whether measurement is transiently paused (serving-tier brownout)."""
    return _SUPPRESSED


def set_measurement_suppressed(suppressed: bool) -> bool:
    """Pause/resume new timing runs (process-wide); returns the old state.

    Unlike :func:`set_tuning_enabled` this is a *transient* signal — the
    :class:`~repro.serve.BrownoutController` raises it while the serving
    tier is under pressure so measurement never competes with paying
    traffic; cached verdicts keep being served either way.
    """
    global _SUPPRESSED
    previous = _SUPPRESSED
    _SUPPRESSED = bool(suppressed)
    return previous


def autotune_stats() -> dict:
    """Counters describing the tuner's cache behaviour (for tests/serving)."""
    with _LOCK:
        return dict(_STATS, cached=len(_CACHE), suppressed=_SUPPRESSED)


def clear_autotune_cache() -> None:
    """Forget every in-process verdict (tests)."""
    global _DISK_LOADED
    with _LOCK:
        _CACHE.clear()
        _DISK_LOADED = False
        for k in _STATS:
            _STATS[k] = 0


def _cache_path() -> str | None:
    path = os.environ.get("REPRO_TUNE_CACHE", "").strip()
    if path:
        return path
    # generalized artifact store: verdicts ride along with the other
    # compiled artifacts when REPRO_ARTIFACTS is configured
    from ..cache import artifacts_dir

    base = artifacts_dir()
    if base is not None:
        return os.path.join(base, "autotune.json")
    return None


def _valid_entry(choice) -> bool:
    """Whether a verdict parsed from disk is a storage format.

    Anything else, such as the thread counts an earlier version stored under
    ``...|threads|...`` keys, is ignored on load and dropped at the next
    merge.
    """
    return choice in ("csr", "ell")


def _load_disk_cache_locked() -> None:
    """Merge the on-disk verdicts into the in-process cache (best effort)."""
    global _DISK_LOADED
    if _DISK_LOADED:
        return
    _DISK_LOADED = True
    path = _cache_path()
    if path is None or not os.path.exists(path):
        return
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        for key_str, choice in stored.items():
            if _valid_entry(choice):
                _CACHE.setdefault(tuple(key_str.split("|")), choice)
    except (OSError, ValueError, AttributeError):  # pragma: no cover - corrupt cache
        pass


def _store_disk_cache(snapshot: dict[tuple, str]) -> None:
    """Atomically merge the current verdicts into the disk cache.

    The on-disk payload is re-read and merged under the same atomic replace
    so two processes sharing a cache file append to, rather than clobber,
    each other's verdicts (the in-process snapshot wins per key).  A corrupt
    or foreign existing file contributes nothing and is overwritten.
    """
    path = _cache_path()
    if path is None:
        return
    payload: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        for key_str, choice in existing.items():
            if _valid_entry(choice):
                payload[key_str] = choice
    except (OSError, ValueError, AttributeError):
        pass
    payload.update(("|".join(key), choice) for key, choice in snapshot.items())
    try:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - read-only cache dir etc.
        pass


def _time_apply(fn, repeats: int = _REPEATS) -> float:
    """Best-of-``repeats`` wall time of ``fn`` after one warm-up call."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measured_assembled_format(operator, backend) -> str | None:
    """Timed CSR-vs-sliced-ELL verdict for an ``AssembledOperator``.

    Returns ``"csr"`` / ``"ell"``, or ``None`` when measurement is disabled,
    the matrix is outside the tuning budget, or timing failed — the caller
    then falls back to the analytic cost model.
    """
    if not _ENABLED:
        return None
    csr = operator.csr
    if csr.nnz > _MAX_TUNE_NNZ or csr.nrows < _MIN_TUNE_ROWS:
        return None
    key = (csr.fingerprint(), backend.name, operator.precision.label,
           str(int(operator.chunk_size)))
    with _LOCK:
        _load_disk_cache_locked()
        cached = _CACHE.get(key)
        if cached is not None:
            _STATS["hits"] += 1
            return cached
    if _SUPPRESSED:
        # brownout: no new timing runs while serving is under pressure
        return None

    try:
        from ..sparse.ell import SlicedEllMatrix

        ell = operator._ell
        if ell is None:
            ell = SlicedEllMatrix(csr, chunk_size=operator.chunk_size)
        # deterministic probe in the matrix storage dtype (the level's apply
        # promotes vectors to at least this precision)
        x = (np.random.default_rng(csr.nrows)
             .uniform(-1.0, 1.0, csr.ncols).astype(operator.dtype))
        with counters_disabled():
            csr_s = _time_apply(lambda: backend.spmv_csr(
                csr.values, csr.indices, csr.indptr, x, record=False,
                scratch=csr.scratch()))
            ell_s = _time_apply(lambda: backend.spmv_ell(ell, x, record=False))
        choice = "ell" if ell_s < csr_s else "csr"
        if choice == "ell":
            operator._ell = ell          # keep the winner's storage warm
    except Exception:  # pragma: no cover - measurement must never break solves
        return None

    with _LOCK:
        _CACHE[key] = choice
        _STATS["measured"] += 1
        snapshot = dict(_CACHE)
    _store_disk_cache(snapshot)
    return choice
