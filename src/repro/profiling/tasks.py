"""Coarse-grain parallelism analysis over a frame's task structure.

Reproduces the reasoning of the paper's Fig. 7(a): with ideal cores and
free communication, the speedup of a frame is limited by its serial
phases plus, per parallel phase, the longest single task (an island, an
object pair, a cloth) vs the number of cores — a longest-processing-time
schedule bound.
"""

from __future__ import annotations

from .report import PARALLEL_PHASES, SERIAL_PHASES


def phase_schedule_length(tasks, cores: int) -> float:
    """Lower-bound makespan of scheduling ``tasks`` on ``cores``."""
    if not tasks:
        return 0.0
    total = sum(tasks)
    return max(total / cores, max(tasks))


def phase_cg_speedup(report, phase: str, cores: int) -> float:
    """Speedup of one parallel phase on ``cores`` ideal CG cores.

    Sub-steps are barriers: the phase re-runs each sub-step and cannot
    overlap tasks across them, so the achievable speedup is bounded by
    the *worst* sub-step — typically the one whose largest single task
    (a big island, the 625-vertex drape) owns the biggest share of that
    sub-step's work.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    step_lists = report.step_tasks.get(phase)
    if not step_lists:
        tasks = report.tasks.get(phase, [])
        step_lists = [tasks] if tasks else []
    worst = None
    for tasks in step_lists:
        if not tasks:
            continue
        s = sum(tasks) / phase_schedule_length(tasks, cores)
        if worst is None or s < worst:
            worst = s
    return worst if worst is not None else 1.0


def cg_speedup(report, cores: int) -> float:
    """Frame speedup on ``cores`` ideal CG cores (Amdahl over phases).

    For one parallel phase with sub-step barriers see
    :func:`phase_cg_speedup`.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    insts = report.phase_instructions()
    serial_time = sum(insts[p] for p in SERIAL_PHASES)
    one_core = serial_time + sum(insts[p] for p in PARALLEL_PHASES)
    if one_core <= 0.0:
        return 1.0
    sched = serial_time
    for phase in PARALLEL_PHASES:
        tasks = report.tasks.get(phase, [])
        if tasks:
            # Normalize task costs so they sum to the phase's modeled
            # instructions (tasks are modeled with the same weights but
            # may not cover warm-start bookkeeping etc.).
            task_total = sum(tasks)
            scale = insts[phase] / task_total if task_total > 0 else 0.0
            sched += phase_schedule_length(
                [t * scale for t in tasks], cores)
        else:
            sched += insts[phase] / cores
    if sched <= 0.0:
        return 1.0
    return one_core / sched
