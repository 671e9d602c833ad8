"""ParallAX architecture models.

Trace-driven models of the paper's machine: set-associative and
way-partitioned L2 caches with one-pass stack-distance profiling, an
OoO window/ROB pipeline for FG-core IPC, a YAGS branch predictor, the
CG<->FG arbiter with mesh/HTX/PCIe link models, OS-threading overhead,
area/energy estimators, and the Section 8.3 analytical model — all
driven by the per-phase traces that :mod:`repro.profiling` records
while the engine simulates the Table 3 benchmarks.
"""

from .arbiter import (
    static_mapping_overhead,
    tasks_in_flight_required,
)
from .area import area_mm2, fg_pool_area
from .branch import StaticPredictor, YagsPredictor
from .cache import CacheSim, StackDistanceProfile
from .interconnect import (
    HTX,
    INTERCONNECTS,
    ONCHIP_MESH,
    PCIE,
    Interconnect,
    simulate_noc,
)
from .machine import (
    CLOCK_HZ,
    KERNEL_FOR_PHASE,
    L2Partitioning,
    OffloadTiming,
    ParallaxConfig,
    ParallaxMachine,
)
from .pipeline import DESIGNS, CoreDesign, kernel_ipc, phase_ipc
from .waypart import WayPartitionedCache

__all__ = [
    "CLOCK_HZ",
    "CacheSim",
    "CoreDesign",
    "DESIGNS",
    "HTX",
    "INTERCONNECTS",
    "Interconnect",
    "KERNEL_FOR_PHASE",
    "L2Partitioning",
    "ONCHIP_MESH",
    "OffloadTiming",
    "PCIE",
    "ParallaxConfig",
    "ParallaxMachine",
    "StackDistanceProfile",
    "StaticPredictor",
    "WayPartitionedCache",
    "YagsPredictor",
    "area_mm2",
    "fg_pool_area",
    "kernel_ipc",
    "phase_ipc",
    "simulate_noc",
    "static_mapping_overhead",
    "tasks_in_flight_required",
]
