"""Which entry point belongs to which layer, and the per-layer metrics.

Layers are named after the scalar modules of ``src/repro``; the stepping
workloads all run ``backend="numpy"``, so the entry points timed here
are the numpy counterparts that ``repro.fastpath.SCALAR_COUNTERPARTS``
pairs with them, each patched on the object its caller resolves it on
(``engine/world.py`` reaches the fastpath kernels as ``module.func`` and
imports ``build_islands`` by name).
"""

from __future__ import annotations

import importlib

from . import trace

#: (layer, module, attribute path) for one numpy-backend world step.
ENGINE_ENTRY_POINTS = (
    ("api.session", "repro.api", "Session.step"),
    ("api.session", "repro.api", "SessionGroup.step"),
    ("engine.world", "repro.engine.world", "World.step"),
    ("engine.world", "repro.fastpath.batch", "BatchWorld.step_frame"),
    ("profiling.report", "repro.profiling.report", "FrameReport.count"),
    ("profiling.report", "repro.profiling.report", "FrameReport.touch"),
    ("profiling.report", "repro.profiling.report", "FrameReport.add_task"),
    ("profiling.report", "repro.profiling.report", "FrameReport.add_tasks"),
    ("collision.broadphase", "repro.fastpath.broadphase",
     "VectorSweepAndPrune.pairs"),
    ("collision.narrowphase", "repro.fastpath.narrowphase",
     "collide_pairs"),
    ("dynamics.islands", "repro.engine.world", "build_islands"),
    ("dynamics.joints", "repro.fastpath.rows", "build_contact_rows"),
    ("dynamics.joints", "repro.fastpath.joints", "build_joint_rows"),
    ("dynamics.solver", "repro.fastpath.solver", "solve_islands"),
    ("engine.integrate", "repro.fastpath.bodies", "apply_forces"),
    ("engine.integrate", "repro.fastpath.bodies", "integrate"),
    ("cloth", "repro.fastpath.cloth", "collider_bounds"),
    ("cloth", "repro.fastpath.cloth", "step_cloth"),
)

#: (layer, module, attribute path) for the architecture model. The
#: IPC functions are imported by name into both of their callers.
ARCH_ENTRY_POINTS = (
    ("arch.cache", "repro.arch.cache", "StackDistanceProfile.from_report"),
    ("arch.pipeline", "repro.arch.machine", "kernel_ipc"),
    ("arch.pipeline", "repro.arch.machine", "phase_ipc"),
    ("arch.pipeline", "repro.analysis.experiments", "kernel_ipc"),
)

ENGINE_LAYERS = tuple(dict.fromkeys(e[0] for e in ENGINE_ENTRY_POINTS))


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _count_hit_pairs(recorder, contacts):
    pairs = {(c.geom_a.uid, c.geom_b.uid) for c in contacts}
    recorder.count("collision.narrowphase.hit_pairs", len(pairs))


def _count_cache_accesses(recorder, profile):
    recorder.count("arch.cache.accesses", profile.total_accesses())


def install_engine(recorder: trace.Recorder):
    for layer, module_name, path in ENGINE_ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        after = _count_hit_pairs if attr == "collide_pairs" else None
        recorder.wrap(owner, attr, layer, after)


def install_arch(recorder: trace.Recorder):
    for layer, module_name, path in ARCH_ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        after = _count_cache_accesses if attr == "from_report" else None
        recorder.wrap(owner, attr, layer, after)
    machine = importlib.import_module("repro.arch.machine").ParallaxMachine
    for attr, value in list(vars(machine).items()):
        if callable(value) and not attr.startswith("_"):
            recorder.wrap(machine, attr, "arch.machine")


#: The ``FrameReport`` counters the engine metrics are built from.
REPORT_COUNTERS = (
    ("broadphase", "pairs"), ("broadphase", "tests"),
    ("narrowphase", "tests"), ("narrowphase", "contacts"),
    ("island_creation", "islands"), ("island_processing", "rows"),
    ("island_processing", "row_updates"),
    ("island_processing", "integrations"),
    ("cloth", "constraint_updates"),
)


def add_report_totals(totals: dict, reports):
    """Sum the :data:`REPORT_COUNTERS` of ``reports`` into ``totals``."""
    for phase, key in REPORT_COUNTERS:
        totals[phase, key] = totals.get((phase, key), 0.0) + sum(
            r.phases[phase].get(key) for r in reports)


def engine_metrics(recorder: trace.Recorder, totals: dict,
                   frames: int) -> dict:
    """Per-world-frame layer metrics from the spans of a traced window
    and the summed ``FrameReport`` counters of its ``frames`` frames."""
    self_s = trace.self_times(recorder)
    calls = trace.call_counts(recorder)
    out = {f"{layer}.self_ms": self_s.get(layer, 0.0) * 1e3 / frames
           for layer in ENGINE_LAYERS}

    def per_frame(phase, key):
        return totals[phase, key] / frames

    tests = per_frame("narrowphase", "tests")
    row_updates = per_frame("island_processing", "row_updates")
    hit_pairs = recorder.counts.get("collision.narrowphase.hit_pairs", 0)
    out.update({
        "profiling.report.touches":
            calls.get("profiling.report", 0) / frames,
        "collision.broadphase.pairs": per_frame("broadphase", "pairs"),
        "collision.broadphase.tests": per_frame("broadphase", "tests"),
        "collision.narrowphase.tests": tests,
        "collision.narrowphase.contacts":
            per_frame("narrowphase", "contacts"),
        "collision.narrowphase.hit_ratio":
            hit_pairs / frames / tests if tests else 0.0,
        "dynamics.islands.count": per_frame("island_creation", "islands"),
        "dynamics.joints.rows": per_frame("island_processing", "rows"),
        "dynamics.solver.calls": calls.get("dynamics.solver", 0) / frames,
        "dynamics.solver.row_updates": row_updates,
        "dynamics.solver.ns_per_row_update":
            (out["dynamics.solver.self_ms"] * 1e6 / row_updates
             if row_updates else 0.0),
        "engine.integrate.calls":
            calls.get("engine.integrate", 0) / frames,
        "engine.integrate.integrations":
            per_frame("island_processing", "integrations"),
        "cloth.constraint_updates":
            per_frame("cloth", "constraint_updates"),
    })
    return out


def arch_metrics(recorder: trace.Recorder) -> dict:
    """Host cost of the architecture model from a traced regeneration."""
    self_s = trace.self_times(recorder)
    calls = trace.call_counts(recorder)
    accesses = recorder.counts.get("arch.cache.accesses", 0)
    profile_s = self_s.get("arch.cache", 0.0)
    return {
        "arch.cache.profile_s": profile_s,
        "arch.cache.profiles": calls.get("arch.cache", 0),
        "arch.cache.accesses": accesses,
        "arch.cache.us_per_kaccess":
            profile_s * 1e9 / accesses if accesses else 0.0,
        "arch.pipeline.ipc_s": self_s.get("arch.pipeline", 0.0),
        "arch.pipeline.calls": calls.get("arch.pipeline", 0),
        "arch.machine.self_s": self_s.get("arch.machine", 0.0),
    }
