"""BatchWorld: step N independent worlds per call through one solve.

Many-world stepping is the regime the paper's architecture targets —
lots of small, independent simulations (game instances, rollout
environments) whose per-world populations are too narrow for wide
vector units.  ``BatchWorld`` runs each world's pipeline stages in
lockstep and packs *all* worlds' prepared islands into a single
``solve`` call of their shared kernel set.  Worlds are disjoint,
so the packing changes nothing numerically (each island still sees
exactly its own rows and bodies).  The packed rows go through the same
C sweep as one world's, so packing makes no row cheaper: it turns N
solver calls per sub-step into one.

Every world steps bit-identically to stepping it alone: the stage
boundaries only hoist work across disjoint worlds, the same argument
``World.step`` already makes for hoisting across disjoint islands.

``BatchWorld`` takes a *uniform* fleet and has no membership of its
own: which worlds may share a fleet is decided in one place,
:class:`repro.api.SessionGroup`, which builds a fleet per cohort per
frame (packing is per step, so a world joining or leaving between
frames is exact for the others).
"""

from __future__ import annotations

from ..profiling import FrameReport


def cohort_key(world):
    """What worlds must share to step as one fleet: the one ``solve``
    call needs one kernel set and one ``solver_iterations`` value, the
    lockstep frame one ``substeps_per_frame``."""
    return (world.kernels, world.config.solver_iterations,
            world.config.substeps_per_frame)


class BatchWorld:
    """Steps a uniform fleet of independent worlds with one packed solve.

    Uniform means one :func:`cohort_key`; anything else is a
    ``ValueError``.
    """

    def __init__(self, worlds):
        self.worlds = list(worlds)
        if len({cohort_key(w) for w in self.worlds}) != 1:
            raise ValueError(
                "BatchWorld needs a non-empty fleet sharing one kernel "
                "set, solver_iterations and substeps_per_frame")

    def __len__(self):
        return len(self.worlds)

    def step(self):
        """Advance every world one ``dt`` sub-step: ``World.step``'s
        three stages over the fleet, around one packed solve."""
        prepared = [w._prepare_step() for w in self.worlds]
        lead = self.worlds[0]
        stats = lead.kernels.solve(
            [rows for _, islands_rows, _ in prepared
             for rows in islands_rows],
            lead.config.solver_iterations)
        start = 0
        for w, (islands, rows, live_geoms) in zip(self.worlds, prepared):
            end = start + len(rows)  # one stats entry per row list
            w._finish_step(islands, stats[start:end], live_geoms)
            start = end

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
