"""Per-frame, per-phase workload accounting.

The engine counts the operations each of Fig. 1's five phases performs
(pair tests, contacts, solver row updates, relaxed cloth constraints,
...) into a :class:`FrameReport`. The architecture models consume these
reports: counters feed the instruction-cost model, per-task cost lists
feed the CG/FG parallelism analysis.
"""

from __future__ import annotations

PHASES = (
    "broadphase",
    "narrowphase",
    "island_creation",
    "island_processing",
    "cloth",
)

# Phases the paper parallelizes across fine-grain tasks (object pairs,
# islands, cloth patches). Broadphase and Island Creation stay serial.
PARALLEL_PHASES = ("narrowphase", "island_processing", "cloth")

SERIAL_PHASES = tuple(p for p in PHASES if p not in PARALLEL_PHASES)


# ``TouchGroup.kind`` of the compact record of one sub-step's Island
# Processing sweeps: ``ids`` is ``(row counts, body-uid lists)``, one
# entry per island each.  It names no memory region: only
# ``memtrace.step_groups`` reads it, as each island's row / body pair.
ISLAND_SWEEPS = "island_sweeps"


class TouchGroup:
    """One recorded burst of memory activity: ``ids`` records of region
    ``kind`` touched in order, swept ``repeat`` times (solver
    iterations), optionally as writes. ``ids`` may be any iterable of
    ints (a ``range`` keeps big sequential sweeps compact; a ``tuple``
    is kept as is, so one id list recorded under two kinds is shared)."""

    __slots__ = ("kind", "ids", "repeat", "writes")

    def __init__(self, kind, ids, repeat=1, writes=False):
        self.kind = kind
        self.ids = ids if isinstance(ids, (range, tuple)) else tuple(ids)
        self.repeat = repeat
        self.writes = writes

    def __repr__(self):
        return (f"TouchGroup({self.kind!r}, n={len(self.ids)},"
                f" repeat={self.repeat})")


class PhaseCounters(dict):
    """Counter dict that reads absent keys as zero."""

    def get(self, key):
        return dict.get(self, key, 0.0)

    def add(self, key, amount=1.0):
        self[key] = dict.get(self, key, 0.0) + amount

    def merge(self, other):
        for key, value in other.items():
            self.add(key, value)

    def scaled(self, factor: float) -> "PhaseCounters":
        out = PhaseCounters()
        for key, value in self.items():
            out[key] = value * factor
        return out


class FrameReport:
    """Counters + task-cost lists for one frame (or one sub-step)."""

    def __init__(self, frame_index: int = 0):
        self.frame_index = frame_index
        self.phases = {phase: PhaseCounters() for phase in PHASES}
        # Task costs bucketed per sub-step (barriers between sub-steps
        # matter for scheduling), and per-step memory-touch traces
        # ({phase: [TouchGroup, ...]} per sub-step) for the cache models.
        self.step_tasks = {phase: [] for phase in PARALLEL_PHASES}
        self.step_touches = []
        self.steps = 0

    def __getitem__(self, phase: str) -> PhaseCounters:
        return self.phases[phase]

    def __contains__(self, phase: str) -> bool:
        return phase in self.phases

    @property
    def tasks(self) -> dict:
        """Each parallel phase's task costs over the whole frame: its
        ``step_tasks`` buckets, flattened in order."""
        return {phase: [cost for step in steps for cost in step]
                for phase, steps in self.step_tasks.items()}

    def count(self, phase: str, **amounts):
        counters = self.phases[phase]
        get = dict.get
        for key, value in amounts.items():
            counters[key] = get(counters, key, 0.0) + value

    def _step_bucket(self, buckets):
        need = self.steps
        if need < 1:
            need = 1
        while len(buckets) < need:
            buckets.append([])
        return buckets[-1]

    def add_task(self, phase: str, cost: float):
        self._step_bucket(self.step_tasks[phase]).append(float(cost))

    def add_tasks(self, phase: str, costs):
        """Bulk ``add_task``: one bucket lookup."""
        self._step_bucket(self.step_tasks[phase]).extend(
            [float(c) for c in costs])

    def touch(self, phase: str, kind: str, ids, repeat: int = 1,
              writes: bool = False):
        """Record a memory-touch burst for the architecture models."""
        bucket = self._step_bucket(self.step_touches)
        bucket.append((phase, TouchGroup(kind, ids, repeat, writes)))

    def summary(self):
        return {phase: dict(counters)
                for phase, counters in self.phases.items()}

    # -- instruction-cost view ------------------------------------------
    def phase_instructions(self) -> dict:
        from .costmodel import phase_instructions
        return {phase: phase_instructions(phase, self.phases[phase])
                for phase in PHASES}

    def total_instructions(self) -> float:
        return sum(self.phase_instructions().values())

    def __repr__(self):
        insts = self.total_instructions()
        return (f"FrameReport(frame={self.frame_index},"
                f" ~{insts / 1e6:.2f}M inst)")


def mean_report(reports) -> FrameReport:
    """Average several frame reports into one representative frame."""
    reports = list(reports)
    if not reports:
        return FrameReport(0)
    out = FrameReport(reports[-1].frame_index)
    inv = 1.0 / len(reports)
    for phase in PHASES:
        merged = PhaseCounters()
        for r in reports:
            merged.merge(r.phases[phase])
        out.phases[phase] = merged.scaled(inv)
    # Task lists and touch traces come from the last (warmed-up) frame:
    # averaging task *costs* across frames would change the task count.
    for phase in PARALLEL_PHASES:
        out.step_tasks[phase] = [list(ts)
                                 for ts in reports[-1].step_tasks[phase]]
    out.step_touches = [list(step) for step in reports[-1].step_touches]
    out.steps = reports[-1].steps
    return out
