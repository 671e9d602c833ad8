"""BatchWorld: step N independent worlds in lockstep, frame by frame.

``BatchWorld`` takes a fleet that shares one :func:`cohort_key` and
steps each world with its own ``World.step``, world after world, around
one shared frame loop.  It packs nothing: packing worlds into one solve
made no row cheaper and measured slower than stepping them one by one
(docs/fastpath.md).  Nothing in ``repro`` uses it: a
:class:`repro.api.SessionGroup` and a ``repro.serve`` shard step each
session alone.  The class stays while the benchmark's layer tracer
names ``BatchWorld.step_frame``.
"""

from __future__ import annotations

from ..profiling import FrameReport


def cohort_key(world):
    """What worlds must share to step as one fleet: the lockstep frame's
    ``substeps_per_frame``.  Each world steps with its own kernel set
    and ``solver_iterations``."""
    return world.config.substeps_per_frame


class BatchWorld:
    """Steps a fleet of independent worlds in lockstep.

    The fleet must be non-empty and share one :func:`cohort_key`;
    anything else is a ``ValueError``.
    """

    def __init__(self, worlds):
        self.worlds = list(worlds)
        if len({cohort_key(w) for w in self.worlds}) != 1:
            raise ValueError(
                "BatchWorld needs a non-empty fleet sharing one "
                "substeps_per_frame")

    def __len__(self):
        return len(self.worlds)

    def step(self):
        """Advance every world one ``dt`` sub-step."""
        for w in self.worlds:
            w.step()

    def step_frame(self, drivers=None):
        """One rendered frame for every world, in lockstep (the fleet
        form of ``World.step_frame``); returns their reports.

        ``drivers`` is an optional per-world list of zero-argument
        callables invoked before each sub-step (the same contract as a
        benchmark driver).
        """
        if drivers is None:
            drivers = [None] * len(self.worlds)
        reports = []
        for w in self.worlds:
            w.report = FrameReport(w.frame_index)
            reports.append(w.report)
        for _ in range(self.worlds[0].config.substeps_per_frame):
            for drive in drivers:
                if drive is not None:
                    drive()
            self.step()
        for w in self.worlds:
            w.frame_index += 1
        return reports
