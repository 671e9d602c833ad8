"""Simulation resilience: checkpoint/restore, the step watchdog with
rollback-and-degrade recovery, and deterministic fault injection."""

from .checkpoint import SnapshotMismatchError, WorldSnapshot
from .faults import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultSchedule,
)
from .guard import (
    LADDER,
    HealthEvent,
    HealthReport,
    StepWatchdog,
    Violation,
)

__all__ = [
    "WorldSnapshot",
    "SnapshotMismatchError",
    "StepWatchdog",
    "HealthReport",
    "HealthEvent",
    "Violation",
    "LADDER",
    "FaultSchedule",
    "FaultInjector",
    "Fault",
    "FAULT_KINDS",
]
