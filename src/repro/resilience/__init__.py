"""Simulation resilience: checkpoint/restore and the step watchdog with
rollback-and-degrade recovery."""

from .checkpoint import SnapshotMismatchError, WorldSnapshot
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
]
