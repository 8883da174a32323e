"""Deterministic thread-parallel execution layer.

Runs the hot kernels — CSR/sliced-ELL SpMV/SpMM, the fused residual
updates, the matrix-free stencil sweeps, and the within-level triangular
substitutions — across a persistent worker pool with **bit-identical
results**: every partition computes its output rows with exactly the serial
kernel's arithmetic and writes to disjoint slices, so the ``REPRO_THREADS``
knob changes wall-clock, never a single bit of any result.

Layout:

* :mod:`repro.par.pool` — the worker pool, the ``REPRO_THREADS``
  configuration (default ``1`` = today's serial behavior; ``auto`` = the
  core count), and the shared budget that keeps dispatcher workers and
  intra-kernel threads from oversubscribing the machine.
* :mod:`repro.par.partition` — nnz-balanced row/slab partition plans,
  cached per storage object (:class:`ParState`), plus the per-kernel
  thread-count resolution (forced override → autotuned verdict → size
  heuristic).
* :mod:`repro.par.kernels` — the partitioned executors the ``fast``
  backend dispatches to.

Serving past one process is the serving ring's job: ``ShardServer``
processes on localhost (:mod:`repro.serve.remote`).

The :mod:`repro.plans` layer prebuilds partitions and autotunes
per-(fingerprint, kernel) thread counts at plan-compile time, so small
operators stay serial and the solve hot loop never partitions.
"""

from .partition import (
    MIN_WORK_PER_THREAD,
    ParState,
    balanced_boundaries,
    csr_partition,
    csr_slabs_from_boundaries,
    kernel_threads,
    level_partition,
    par_state,
    span_partition,
)
from .pool import (
    active_consumers,
    configured_procs,
    configured_threads,
    effective_threads,
    force_threads,
    forced_threads,
    parallel_enabled,
    pool_consumer,
    pool_stats,
    run_tasks,
    set_threads,
    use_threads,
)

__all__ = [
    "MIN_WORK_PER_THREAD",
    "ParState",
    "active_consumers",
    "balanced_boundaries",
    "configured_procs",
    "configured_threads",
    "csr_partition",
    "csr_slabs_from_boundaries",
    "effective_threads",
    "force_threads",
    "forced_threads",
    "kernel_threads",
    "level_partition",
    "par_state",
    "parallel_enabled",
    "pool_consumer",
    "pool_stats",
    "run_tasks",
    "set_threads",
    "span_partition",
    "use_threads",
]
