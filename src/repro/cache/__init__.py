"""Persistent compiled-artifact cache (cold-start elimination layer).

A versioned, fingerprint-keyed on-disk store for every expensive setup
product:

========== ==========================================================
kind       payload
========== ==========================================================
``ilu0``   ILU(0)/IC(0) factor CSR arrays, keyed by
           ``(matrix fingerprint, alpha, breakdown_shift)``
``levels`` triangular dependency-level schedules, keyed by the
           structural hash of the dependency edge list
========== ==========================================================

Enable by pointing ``REPRO_ARTIFACTS`` at a directory (or calling
:func:`set_artifacts_dir`).  Unset, every layer behaves exactly as before.

Long-lived hosts bound the store with :func:`gc` (size/age pruning with an
LRU mtime clock; ``REPRO_ARTIFACTS_MAX_MB`` / ``REPRO_ARTIFACTS_MAX_AGE_DAYS``
drive the automatic write-path passes) — see :mod:`repro.cache.gc`.
"""

from .gc import (
    AUTO_GC_EVERY,
    configured_max_age_days,
    configured_max_mb,
    gc,
    maybe_auto_gc,
)
from .store import (
    ARTIFACT_VERSION,
    artifact_key,
    artifacts_dir,
    artifacts_enabled,
    cold_start_stats,
    load_arrays,
    reset_cold_start_stats,
    set_artifacts_dir,
    store_arrays,
)

__all__ = [
    "ARTIFACT_VERSION",
    "AUTO_GC_EVERY",
    "artifact_key",
    "artifacts_dir",
    "artifacts_enabled",
    "cold_start_stats",
    "configured_max_age_days",
    "configured_max_mb",
    "gc",
    "load_arrays",
    "maybe_auto_gc",
    "reset_cold_start_stats",
    "set_artifacts_dir",
    "store_arrays",
]
