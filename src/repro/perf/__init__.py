"""Performance accounting: traffic counters, machine models, timers.

See DESIGN.md §5: convergence results are measured by actually running the
emulated-precision solvers, while execution-time results (Figures 1-2) are
derived from memory-traffic counts through a bandwidth/latency machine model,
matching the paper's own premise that the kernels are memory-bound.
"""

from .counters import (
    Traffic,
    TrafficCounter,
    counting,
    counters_disabled,
    counters_enabled,
    current_counter,
    global_counter,
    record,
    record_bytes,
    record_flops,
    record_kernel,
    reset_global_counter,
    set_counters_enabled,
)
from .machine import (
    CPU_NODE,
    CPU_NODE_FULL,
    GPU_NODE,
    GPU_NODE_FULL,
    MachineModel,
    modeled_time,
    padded_entry_count,
)
from .timer import StageTimer, Timer, timed

__all__ = [
    "Traffic",
    "TrafficCounter",
    "counting",
    "counters_disabled",
    "counters_enabled",
    "set_counters_enabled",
    "current_counter",
    "global_counter",
    "record",
    "record_bytes",
    "record_flops",
    "record_kernel",
    "reset_global_counter",
    "MachineModel",
    "CPU_NODE",
    "GPU_NODE",
    "CPU_NODE_FULL",
    "GPU_NODE_FULL",
    "modeled_time",
    "padded_entry_count",
    "Timer",
    "StageTimer",
    "timed",
]
