"""Workload instrumentation: frame reports, instruction-cost model,
task-level parallelism analysis."""

from .costmodel import (
    INSTRUCTION_WEIGHTS,
    phase_instructions,
    task_cost_cloth,
    task_cost_island,
    task_cost_narrowphase,
)
from .instmix import (
    FG_KERNEL_SHARE,
    KERNEL_FOOTPRINTS,
    KERNEL_MIX,
    MIX_CATEGORIES,
    PHASE_MIX,
)
from .report import (
    ISLAND_SWEEPS,
    PARALLEL_PHASES,
    PHASES,
    SERIAL_PHASES,
    FrameReport,
    PhaseCounters,
    TouchGroup,
    mean_report,
)
from .tasks import (
    phase_cg_speedup,
    phase_schedule_length,
)

__all__ = [
    "TouchGroup",
    "phase_cg_speedup",
    "MIX_CATEGORIES",
    "PHASE_MIX",
    "KERNEL_MIX",
    "KERNEL_FOOTPRINTS",
    "FG_KERNEL_SHARE",
    "PHASES",
    "ISLAND_SWEEPS",
    "PARALLEL_PHASES",
    "SERIAL_PHASES",
    "FrameReport",
    "PhaseCounters",
    "mean_report",
    "INSTRUCTION_WEIGHTS",
    "phase_instructions",
    "task_cost_narrowphase",
    "task_cost_island",
    "task_cost_cloth",
    "phase_schedule_length",
]
