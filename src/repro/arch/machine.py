"""Top-level ParallAX machine model.

Composes the component models — stack-distance cache profiles, the
pipeline IPC model, the arbiter and interconnect, the OS-overhead
model — into frame-time estimates for a configured machine:

* :class:`L2Partitioning` — how the shared L2 is sliced across phases.
* :class:`ParallaxConfig` — CG cores, L2 scheme, FG pool and link.
* :class:`ParallaxMachine` — ``frame_seconds`` (conventional CMP) and
  ``parallax_frame_seconds`` (with the FG pool), plus the per-phase
  offload breakdown and the Fig 10(b) cores-for-30FPS query.

The timing equation follows ``docs/MODELING.md``: compute cycles are
``instructions / IPC``; each L2 access adds a partially hidden 15-cycle
latency; each L2 miss adds a mostly exposed 340-cycle memory trip.
"""

from __future__ import annotations

import math

from ..profiling.instmix import FG_KERNEL_SHARE, KERNEL_FOOTPRINTS
from ..profiling.report import PARALLEL_PHASES, PHASES
from ..profiling.tasks import phase_cg_speedup
from . import arbiter, osmodel
from .arbiter import CLOCK_HZ
from .cache import StackDistanceProfile
from .interconnect import ONCHIP_MESH, Interconnect
from .pipeline import kernel_ipc, phase_ipc

__all__ = [
    "CLOCK_HZ",
    "L2Partitioning",
    "ParallaxConfig",
    "ParallaxMachine",
    "OffloadTiming",
    "KERNEL_FOR_PHASE",
]

FPS_TARGET = 30.0
#: The CG cores' pipeline design point (``repro.arch.pipeline.DESIGNS``).
CG_DESIGN = "desktop"

L2_HIT_CYCLES = 15
L2_HIT_EXPOSED = 0.35   # fraction of hit latency the OoO core eats
MEM_CYCLES = 340
MEM_EXPOSED = 0.70

KERNEL_FOR_PHASE = {
    "narrowphase": "narrowphase",
    "island_processing": "island",
    "cloth": "cloth",
}

# Link payload per FG task: a descriptor plus the written-back results;
# operand reads hit the pool-local replicated scene state.
TASK_DESCRIPTOR_BYTES = 64

MB = 1024 * 1024


class L2Partitioning:
    """Slices of the shared L2, each serving a set of phases.

    A slice with ``phases=None`` is the catch-all shared slice.
    """

    def __init__(self, slices):
        self.slices = [
            (None if phases is None else tuple(phases), float(nbytes))
            for phases, nbytes in slices
        ]

    @classmethod
    def shared(cls, nbytes):
        return cls([(None, nbytes)])

    @classmethod
    def paper_scheme(cls):
        """The 12MB application-aware scheme: serial pipeline-state,
        narrowphase pair-data, and solver/cloth slices of 4MB each."""
        return cls([
            (("broadphase", "island_creation"), 4 * MB),
            (("narrowphase",), 4 * MB),
            (("island_processing", "cloth"), 4 * MB),
        ])

    @classmethod
    def dedicated(cls, phase, nbytes, rest=4 * MB):
        """One phase gets a private slice; everything else shares."""
        return cls([((phase,), nbytes), (None, rest)])

    def slice_for(self, phase):
        """(phases_sharing_the_slice, slice_bytes) for ``phase``."""
        for phases, nbytes in self.slices:
            if phases is not None and phase in phases:
                return phases, nbytes
        for phases, nbytes in self.slices:
            if phases is None:
                covered = set()
                for ps, _ in self.slices:
                    if ps is not None:
                        covered.update(ps)
                rest = tuple(p for p in PHASES if p not in covered)
                return rest, nbytes
        raise KeyError(phase)

    @property
    def total_bytes(self):
        return sum(nbytes for _, nbytes in self.slices)

    def __repr__(self):
        parts = ", ".join(
            f"{'*' if ps is None else '+'.join(ps)}:"
            f"{nbytes / MB:g}MB"
            for ps, nbytes in self.slices
        )
        return f"L2Partitioning({parts})"


class ParallaxConfig:
    """A machine design point."""

    def __init__(self, cg_cores=1, l2=None, fg_design=None, fg_cores=0,
                 interconnect: Interconnect = ONCHIP_MESH,
                 prefetch_coverage=None):
        self.cg_cores = cg_cores
        self.l2 = l2 if l2 is not None else L2Partitioning.shared(MB)
        self.fg_design = fg_design
        self.fg_cores = fg_cores
        self.interconnect = interconnect
        #: Fraction of each phase's L2 misses a hardware prefetcher
        #: converts to hits: ``None``, one scalar for every phase, or a
        #: ``phase -> fraction`` mapping (absent phases get 0).
        self.prefetch_coverage = prefetch_coverage


class OffloadTiming:
    """Per-phase CG/FG split under the configured FG pool."""

    __slots__ = ("phase", "seconds", "offloaded_fraction",
                 "cg_seconds", "fg_seconds")

    def __init__(self, phase, seconds, offloaded_fraction,
                 cg_seconds, fg_seconds):
        self.phase = phase
        self.seconds = seconds
        self.offloaded_fraction = offloaded_fraction
        self.cg_seconds = cg_seconds
        self.fg_seconds = fg_seconds

    def __repr__(self):
        return (f"OffloadTiming({self.phase}: {self.seconds * 1e3:.2f}ms,"
                f" {self.offloaded_fraction * 100:.0f}% offloaded)")


class ParallaxMachine:
    """Frame-time model for one :class:`ParallaxConfig`."""

    def __init__(self, config: ParallaxConfig = None):
        self.config = config if config is not None else ParallaxConfig()

    # -- cache profiles -------------------------------------------------
    def _coverage(self, phase) -> float:
        cov = self.config.prefetch_coverage
        if cov is None:
            return 0.0
        if isinstance(cov, dict):
            cov = cov.get(phase, 0.0)
        return min(1.0, max(0.0, float(cov)))

    def _phase_misses(self, report, phase, l2_bytes=None):
        """(accesses, misses) for one phase under the L2 scheme."""
        group, slice_bytes = self.config.l2.slice_for(phase)
        if l2_bytes is not None:
            slice_bytes = l2_bytes
        profile = StackDistanceProfile.from_report(report, group)
        accesses = profile.total_accesses((phase,))
        misses = profile.misses(slice_bytes, (phase,))
        if l2_bytes is None and len(self.config.l2.slices) > 1:
            # Way-partitioning restricts *allocation*, not lookup: a
            # block resident in another slice still hits. Bound each
            # phase's misses by a fully shared cache of the total size
            # so producer->consumer reuse across slices is not charged
            # as cold misses.
            shared = StackDistanceProfile.from_report(report)
            misses = min(misses, shared.misses(
                self.config.l2.total_bytes, (phase,)))
        return accesses, misses * (1.0 - self._coverage(phase))

    # -- conventional CMP timing ----------------------------------------
    def phase_cycles(self, report, phase, threads=1, l2_bytes=None):
        """Modeled CG cycles for one phase of one frame."""
        insts = report.phase_instructions()[phase]
        ipc = phase_ipc(CG_DESIGN, phase)
        accesses, misses = self._phase_misses(report, phase, l2_bytes)
        cycles = (insts / ipc
                  + accesses * L2_HIT_CYCLES * L2_HIT_EXPOSED
                  + misses * MEM_CYCLES * MEM_EXPOSED)
        if threads > 1 and phase in PARALLEL_PHASES:
            cycles /= phase_cg_speedup(report, phase, threads)
        return cycles

    def phase_seconds(self, report, phase, threads=1, l2_bytes=None):
        return self.phase_cycles(report, phase, threads, l2_bytes) \
            / CLOCK_HZ

    def frame_cycles(self, report, threads=1):
        cycles = sum(self.phase_cycles(report, p, threads)
                     for p in PHASES)
        if threads > 1:
            os_misses = osmodel.kernel_overhead_misses(
                threads, self.config.l2.total_bytes)
            sync = osmodel.sync_instructions(threads)
            cycles += os_misses * MEM_CYCLES * MEM_EXPOSED + sync
        return cycles

    def frame_seconds(self, report, threads=1):
        return self.frame_cycles(report, threads) / CLOCK_HZ

    def fps(self, report, threads=1):
        seconds = self.frame_seconds(report, threads)
        return 1.0 / seconds if seconds > 0 else float("inf")

    def l2_miss_breakdown(self, report, threads=1):
        """User vs OS-kernel L2 misses per frame (Fig 6b)."""
        user = 0.0
        for phase in PHASES:
            _accesses, misses = self._phase_misses(report, phase)
            user += misses
        # Per-thread working-set duplication inflates user misses a
        # little as threads scale.
        user *= 1.0 + 0.06 * (threads - 1)
        kernel = osmodel.kernel_overhead_misses(
            threads, self.config.l2.total_bytes)
        return {"user": user, "kernel": kernel}

    # -- FG offload -----------------------------------------------------
    def _fg_task_stats(self, report, phase):
        """(task_count, mean_task_cycles, task_bytes) on the FG design."""
        tasks = report.tasks.get(phase, [])
        if not tasks or self.config.fg_design is None:
            return 0, 0.0, 0.0
        kernel = KERNEL_FOR_PHASE[phase]
        ipc = kernel_ipc(self.config.fg_design, kernel)
        mean_cost = sum(tasks) / len(tasks)
        task_cycles = mean_cost / ipc if ipc > 0 else float("inf")
        footprint = KERNEL_FOOTPRINTS[kernel]
        task_bytes = (TASK_DESCRIPTOR_BYTES
                      + footprint["write_bytes_per_100"])
        return len(tasks), task_cycles, task_bytes

    def hidden_fraction(self, report, phase):
        """Share of a phase's FG tasks whose dispatch round trip can be
        hidden by the available task parallelism and link bandwidth."""
        if self.config.fg_design is None or self.config.fg_cores <= 0:
            return 0.0
        avail, task_cycles, task_bytes = self._fg_task_stats(
            report, phase)
        if avail == 0:
            return 0.0
        link = self.config.interconnect
        if not arbiter.bandwidth_feasible(
                self.config.fg_cores, task_cycles, task_bytes, link):
            return 0.0
        required = arbiter.tasks_in_flight_required(
            self.config.fg_cores, task_cycles, link)
        if not math.isfinite(required) or required <= 0:
            return 0.0
        return min(1.0, avail / required)

    def offload_timings(self, report):
        """Per-phase :class:`OffloadTiming` for the configured pool."""
        out = {}
        insts = report.phase_instructions()
        for phase in PHASES:
            cycles = self.phase_cycles(
                report, phase, threads=self.config.cg_cores)
            if phase not in PARALLEL_PHASES \
                    or self.config.fg_design is None \
                    or self.config.fg_cores <= 0:
                out[phase] = OffloadTiming(
                    phase, cycles / CLOCK_HZ, 0.0,
                    cycles / CLOCK_HZ, 0.0)
                continue
            share = FG_KERNEL_SHARE[phase]
            f = share * self.hidden_fraction(report, phase)
            kernel = KERNEL_FOR_PHASE[phase]
            ipc_fg = kernel_ipc(self.config.fg_design, kernel)
            avail, _, _ = self._fg_task_stats(report, phase)
            eff_cores = max(1.0, min(self.config.fg_cores, avail))
            fg_cycles = (f * insts[phase]) / (ipc_fg * eff_cores)
            fg_cycles += self.config.interconnect.round_trip_cycles
            cg_cycles = cycles * (1.0 - f)
            total = max(cg_cycles, fg_cycles)
            out[phase] = OffloadTiming(
                phase, total / CLOCK_HZ, f,
                cg_cycles / CLOCK_HZ, fg_cycles / CLOCK_HZ)
        return out

    def parallax_frame_seconds(self, report):
        timings = self.offload_timings(report)
        return sum(t.seconds for t in timings.values())

    def parallax_fps(self, report):
        seconds = self.parallax_frame_seconds(report)
        return 1.0 / seconds if seconds > 0 else float("inf")

    # -- design-space queries -------------------------------------------
    def fg_cores_required(self, report, budget_fraction=0.32,
                          fps=FPS_TARGET):
        """FG cores needed to run the kernels' share of the parallel
        phases within ``budget_fraction`` of a 1/fps frame (Fig 10b)."""
        design = self.config.fg_design or "desktop"
        insts = report.phase_instructions()
        need_cycles = 0.0
        for phase in PARALLEL_PHASES:
            kernel = KERNEL_FOR_PHASE[phase]
            ipc = kernel_ipc(design, kernel)
            need_cycles += FG_KERNEL_SHARE[phase] * insts[phase] / ipc
        budget_cycles = budget_fraction * CLOCK_HZ / fps
        if budget_cycles <= 0:
            return 0
        return max(1, int(math.ceil(need_cycles / budget_cycles)))
