"""Hierarchical CG <-> FG task arbiter model.

CG threads push kernel tasks to a two-level arbiter (a root arbiter on
the FG pool, leaf arbiters per core cluster); FG cores pull. The model
answers the paper's Table 7 question — how many tasks must be in
flight to hide the round trip of each attachment point — and the
static-vs-flexible mapping comparison: dealing CG tasks round-robin to
threads at island-creation time versus work-stealing at run time.
"""

from __future__ import annotations

import math

from .interconnect import Interconnect

__all__ = [
    "round_trip_cycles",
    "tasks_in_flight_required",
    "bandwidth_feasible",
    "static_mapping_overhead",
    "deal_round_robin",
]

#: Core clock (Hz) of the CG and FG cores.
CLOCK_HZ = 2e9
ARBITER_LEVELS = 2
ARBITER_HOP_CYCLES = 4


def round_trip_cycles(interconnect: Interconnect,
                      levels: int = ARBITER_LEVELS,
                      hop_cycles: int = ARBITER_HOP_CYCLES) -> float:
    """Dispatch + completion round trip through the arbiter tree."""
    return interconnect.round_trip_cycles + 2 * levels * hop_cycles


def tasks_in_flight_required(pool_cores: int, task_cycles: float,
                             interconnect: Interconnect) -> float:
    """Tasks that must be queued to keep ``pool_cores`` busy.

    Each core needs the next task to arrive before it drains the
    current one, so the pool needs ``1 + ceil(rt / task)`` tasks per
    core in flight. Infeasible (inf) when the link cannot sustain the
    pool's aggregate task bandwidth.
    """
    if task_cycles <= 0:
        return float("inf")
    rt = round_trip_cycles(interconnect)
    depth = 1 + math.ceil(rt / task_cycles)
    return float(pool_cores * depth)


def bandwidth_feasible(pool_cores: int, task_cycles: float,
                       task_bytes: float,
                       interconnect: Interconnect) -> bool:
    """Can the link feed every core its task operands continuously?"""
    if task_cycles <= 0:
        return False
    tasks_per_second = CLOCK_HZ / task_cycles
    demand = pool_cores * task_bytes * tasks_per_second
    return demand <= interconnect.bandwidth_bytes


def deal_round_robin(demands, threads: int):
    """Static mapping: deal tasks to threads in arrival order."""
    buckets = [0.0] * max(1, threads)
    for i, demand in enumerate(demands):
        buckets[i % len(buckets)] += demand
    return buckets


def static_mapping_overhead(demands, threads: int) -> float:
    """Fractional time lost to static (deal-at-creation) mapping
    versus a perfectly flexible scheduler.

    The frame ends when the most-loaded thread finishes; flexible
    scheduling finishes in ``total / threads``. Returns
    ``threads * max_bucket / total - 1`` (0 = perfectly balanced).
    """
    demands = [d for d in demands if d > 0]
    if not demands:
        return 0.0
    buckets = deal_round_robin(demands, threads)
    total = sum(buckets)
    if total <= 0:
        return 0.0
    return threads * max(buckets) / total - 1.0
