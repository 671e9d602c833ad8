"""Coarse-grain parallelism analysis over a frame's task structure.

Reproduces the reasoning of the paper's Fig. 7(a): with ideal cores and
free communication, the speedup of a frame is limited by its serial
phases plus, per parallel phase, the longest single task (an island, an
object pair, a cloth) vs the number of cores — a longest-processing-time
schedule bound.
"""

from __future__ import annotations


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
    worst = None
    for tasks in report.step_tasks.get(phase, ()):
        if not tasks:
            continue
        s = sum(tasks) / phase_schedule_length(tasks, cores)
        if worst is None or s < worst:
            worst = s
    return worst if worst is not None else 1.0

