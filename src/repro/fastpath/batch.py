"""BatchWorld: step N independent worlds per call through one solve.

Many-world stepping is the regime the paper's architecture targets —
lots of small, independent simulations (game instances, rollout
environments) whose per-world populations are too narrow for wide
vector units.  ``BatchWorld`` runs each world's pipeline stages in
lockstep and packs *all* worlds' prepared islands into a single
``solve`` call of their shared kernel set.  Worlds are disjoint,
so the packing changes nothing numerically (each island still sees
exactly its own rows and bodies) — but the packed batch has N× the
rows per dependency level, which is what lets the solver's vectorized
``levels`` strategy win over the sequential flat recurrence.

Every world steps bit-identically to stepping it alone: the stage
boundaries only hoist work across disjoint worlds, the same argument
``World.step`` already makes for hoisting across disjoint islands.
"""

from __future__ import annotations

from ..profiling import FrameReport


class BatchWorld:
    """Steps a fleet of independent worlds with one packed solve.

    The packed solve needs every world on one kernel set (one
    ``backend``) and a single shared ``solver_iterations`` value;
    anything else falls back to stepping the worlds one by one (still
    correct, just unbatched).
    """

    def __init__(self, worlds=()):
        self.worlds = list(worlds)

    def __len__(self):
        return len(self.worlds)

    # -- membership -----------------------------------------------------
    # Packing happens per step (``step`` re-derives spans from the
    # current roster), so joining or leaving between steps is exact: the
    # remaining worlds' islands still see only their own rows, in the
    # same order as before. That's what makes the batch the unit of a
    # serve shard — sessions come and go without a rebuild.

    # pax: ignore[PAX202]: membership bookkeeping, not a kernel; the
    # numerical path it feeds (step) is differentially tested.
    def add_world(self, world):
        """Join ``world`` to the fleet (steps with the next call)."""
        if world in self.worlds:
            raise ValueError("world already in batch")
        self.worlds.append(world)
        return world

    # pax: ignore[PAX202]: membership bookkeeping, not a kernel; the
    # numerical path it feeds (step) is differentially tested.
    def remove_world(self, world):
        """Drop ``world`` from the fleet, preserving the others' order."""
        self.worlds.remove(world)
        return world

    def _batchable(self) -> bool:
        return len({(w.kernels, w.config.solver_iterations)
                    for w in self.worlds}) == 1

    def step(self):
        """Advance every world one ``dt`` sub-step: ``World.step``'s
        three stages over the fleet, around one packed solve."""
        if not self._batchable():
            for w in self.worlds:
                w.step()
            return
        prepared = [w._prepare_step() for w in self.worlds]
        lead = self.worlds[0]
        stats = lead.kernels.solve(
            [rows for _, islands_rows, _ in prepared
             for rows in islands_rows],
            lead.config.solver_iterations)
        start = 0
        for w, (islands, _, live_geoms) in zip(self.worlds, prepared):
            end = start + len(islands)
            w._finish_step(islands, stats[start:end], live_geoms)
            start = end

    def step_frame(self, drivers=None):
        """One rendered frame for every world; returns their reports.

        ``drivers`` is an optional per-world list of zero-argument
        callables invoked before each sub-step (the same contract as a
        benchmark driver).  Worlds advance in lockstep, which requires
        a uniform ``substeps_per_frame``; mixed configurations step
        frame-by-frame per world instead.
        """
        if drivers is None:
            drivers = [None] * len(self.worlds)
        reports = []
        for w in self.worlds:
            w.report = FrameReport(w.frame_index)
            reports.append(w.report)
        substep_counts = {w.config.substeps_per_frame
                          for w in self.worlds}
        if len(substep_counts) == 1:
            for _ in range(substep_counts.pop()):
                for drive in drivers:
                    if drive is not None:
                        drive()
                self.step()
        else:
            for w, drive in zip(self.worlds, drivers):
                for _ in range(w.config.substeps_per_frame):
                    if drive is not None:
                        drive()
                    w.step()
        for w in self.worlds:
            w.frame_index += 1
        return reports
