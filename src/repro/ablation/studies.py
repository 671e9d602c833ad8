"""The five ablation studies behind ``results/ablation_*.txt``.

``python -m repro.analysis`` regenerates them and
``tests/test_paper_shapes.py`` pins each table byte for byte.

Four use a purpose-built scene that isolates one mechanism (a box
stack for warm starting, a quiescent grid for sleep, a bullet vs a
thin wall for CCD, 300 random spheres for the broadphase) and assert
in tier-1 that it is load-bearing.  The fifth, :func:`ablation_matrix`,
asks the opposite question — what does each toggle cost on the paper's
own workloads? — by running the eight Table 3 scenarios once per
one-off toggle and pricing every run on the paper's machine.

Every study takes no arguments, runs at fixed module constants and
returns ``(data, text)``; no number reads a clock.
"""

from __future__ import annotations

import random

from ..analysis.extensions import prefetch_coverage
from ..analysis.tables import format_table
from ..api import Session, SessionSpec
from ..arch import L2Partitioning, ParallaxConfig, ParallaxMachine
from ..collision import (
    BruteForceBroadphase,
    SpatialHashBroadphase,
    SweepAndPrune,
)
from ..collision.geom import Geom
from ..dynamics import Body
from ..engine import World, WorldConfig
from ..geometry import Box, Plane, Sphere
from ..math3d import Transform, Vec3
from ..profiling import mean_report
from ..workloads import BENCHMARKS, validate_world

__all__ = ["warmstart_study", "autosleep_study", "ccd_study",
           "broadphase_study", "ablation_matrix", "STUDIES"]

#: The warm-start study's stack: boxes high, and sub-steps settled.
STACK_HEIGHT = 6
STACK_STEPS = 200


def _ground(**cfg):
    w = World(WorldConfig(**cfg))
    w.add_static_geom(Plane(Vec3(0, 1, 0), 0.0))
    return w


def _stack_error(warm, iterations):
    """Worst drift of a :data:`STACK_HEIGHT`-box stack after
    :data:`STACK_STEPS` sub-steps."""
    w = _ground(warm_starting=warm, solver_iterations=iterations)
    boxes = []
    for i in range(STACK_HEIGHT):
        b = Body(position=Vec3(0, 0.5 + 1.001 * i, 0))
        w.attach(b, Box.from_dimensions(1, 1, 1))
        boxes.append(b)
    for _ in range(STACK_STEPS):
        w.step()
    return max(abs(b.position.y - (0.5 + i))
               for i, b in enumerate(boxes))


def warmstart_study():
    """Stack drift with vs without contact warm starting."""
    rows = []
    for iters in (4, 8, 20):
        cold = _stack_error(False, iters)
        warm = _stack_error(True, iters)
        rows.append((iters, f"{cold:.3f}", f"{warm:.3f}"))
    text = format_table(
        ("solver iterations", "cold-start error (m)",
         "warm-start error (m)"),
        rows, "ablation — contact warm starting vs stack drift",
    )
    return rows, text


def _autosleep_updates(auto_sleep):
    w = _ground(auto_sleep=auto_sleep)
    for i in range(12):
        b = Body(position=Vec3((i % 4) * 1.2, 0.5, (i // 4) * 1.2))
        w.attach(b, Box.from_dimensions(1, 1, 1))
    total_updates = 0
    for _ in range(100):
        w.report = None
        rep = w.step_frame()
        total_updates += rep["island_processing"].get("row_updates")
    return total_updates


def autosleep_study():
    """Solver row updates on a quiescent scene, awake vs auto-sleep."""
    awake = _autosleep_updates(False)
    asleep = _autosleep_updates(True)
    rows = [("always awake", int(awake)), ("auto-sleep", int(asleep))]
    text = format_table(
        ("config", "solver row updates (100 frames)"),
        rows, "ablation — auto-sleep solver work on a quiescent scene",
    )
    return rows, text


def _tunnel_test(speed, use_ccd):
    w = World(WorldConfig(gravity=Vec3.zero(), ccd=use_ccd))
    w.add_static_geom(
        Box(Vec3(0.1, 2.0, 2.0)), offset=Transform(Vec3(5.0, 2.0, 0))
    )
    bullet = Body(position=Vec3(0, 2.0, 0))
    w.attach(bullet, Sphere(0.2), density=8000.0)
    bullet.linear_velocity = Vec3(speed, 0, 0)
    for _ in range(40):
        w.step()
    return bullet.position.x < 5.0  # stopped by the wall?


def ccd_study():
    """Tunneling vs projectile speed with and without the swept test."""
    rows = []
    # 144/288 m/s step exactly over the wall's 0.6m collision window
    # at discrete 0.01s sampling; 30 m/s cannot skip it.
    for speed in (30.0, 144.0, 288.0):
        rows.append(
            (
                f"{speed:.0f} m/s",
                "stopped" if _tunnel_test(speed, False) else "TUNNELED",
                "stopped" if _tunnel_test(speed, True) else "TUNNELED",
            )
        )
    text = format_table(
        ("projectile speed", "without CCD", "with CCD"),
        rows, "ablation — continuous collision detection",
    )
    return rows, text


def broadphase_study():
    """AABB-test counts of the three broadphase strategies."""
    rng = random.Random(5)
    geoms = []
    for _ in range(300):
        b = Body(
            position=Vec3(
                rng.uniform(-25, 25), rng.uniform(0, 8),
                rng.uniform(-25, 25)
            )
        )
        b.set_mass_from_shape(Sphere(0.5), 1.0)
        geoms.append(Geom(Sphere(0.5), body=b))

    rows = []
    oracle = None
    for name, bp in (
        ("brute-force", BruteForceBroadphase()),
        ("sweep-and-prune", SweepAndPrune()),
        ("spatial-hash", SpatialHashBroadphase()),
    ):
        pairs = bp.pairs(geoms)
        found = {(a.gid, b.gid) for a, b in pairs}
        if oracle is None:
            oracle = found
        elif found != oracle:
            raise AssertionError(
                f"{name} disagrees with the brute-force oracle")
        rows.append((name, bp.last_stats["tests"], len(pairs)))
    text = format_table(
        ("strategy", "AABB tests", "pairs"),
        rows, "ablation — broadphase strategies (300 spheres)",
    )
    return rows, text


#: The matrix's setting (that of the committed ``results/``).
MATRIX_SCALE, MATRIX_FRAMES, MATRIX_SEED = 0.03, 2, 0

#: The one-off engine toggles: ``(feature, SessionSpec patch)`` against
#: the baseline (scalar backend, default ``WorldConfig``, unguarded).
#: ``autosleep``, ``numpy_fastpath`` and ``watchdog`` switch a
#: default-off mechanism on; the rest switch a default-on one off.
TOGGLES = (
    ("warm_start", {"config": {"warm_starting": False}}),
    ("autosleep", {"config": {"auto_sleep": True}}),
    ("ccd", {"config": {"ccd": False}}),
    ("broadphase_sap", {"config": {"broadphase": "brute"}}),
    ("numpy_fastpath", {"backend": "numpy"}),
    ("watchdog", {"watchdog": True}),
)


def _modeled_fps(measured, **machine):
    """Frame rate of ``measured`` on the paper's machine (4 CG cores,
    way-partitioned 12MB L2), or on a ``machine`` variant of it."""
    machine.setdefault("l2", L2Partitioning.paper_scheme())
    return ParallaxMachine(ParallaxConfig(
        cg_cores=4, **machine)).fps(measured, threads=4)


def _matrix_run(workload, patch):
    """Simulate ``workload`` under ``patch`` in a private uid scope."""
    session = Session.create(SessionSpec(
        workload, scale=MATRIX_SCALE, seed=MATRIX_SEED,
        **{"backend": "scalar", **patch}))
    measured = mean_report(session.step(MATRIX_FRAMES))
    return {
        "measured": measured,
        "fps": _modeled_fps(measured),
        "row_updates": measured["island_processing"].get("row_updates"),
        "digest": session.state_digest(),
        "valid": validate_world(session.world,
                                health=session.health).ok,
    }


def _pct(new, old):
    return (new - old) / old * 100.0 if old else 0.0


def ablation_matrix():
    """Feature x Table 3 workload: what each one-off toggle moves.

    Engine rows re-simulate; the two arch rows (``l2_partitioning``:
    one shared 12MB L2, ``prefetch``: next-4-line L2 prefetch) re-price
    the baseline run on a machine variant.  Per cell: the change in
    modeled fps and in solver row updates, and whether the trajectory
    digest moved; ``importance`` is the mean absolute fps change as a
    fraction (NeoPhysIx-style per-feature accounting, PAPERS.md).
    """
    cells = {}
    for workload in BENCHMARKS:
        base = _matrix_run(workload, {})
        runs = {name: _matrix_run(workload, patch)
                for name, patch in TOGGLES}
        measured = base["measured"]
        coverage = {phase: covered for phase, (_m, _pf, covered)
                    in prefetch_coverage(measured).items()}
        runs["l2_partitioning"] = dict(base, fps=_modeled_fps(
            measured, l2=L2Partitioning.shared(
                L2Partitioning.paper_scheme().total_bytes)))
        runs["prefetch"] = dict(base, fps=_modeled_fps(
            measured, prefetch_coverage=coverage))
        for name, run in runs.items():
            cells.setdefault(name, {})[workload] = {
                "delta_modeled_fps_pct": _pct(run["fps"], base["fps"]),
                "delta_row_updates_pct": _pct(run["row_updates"],
                                              base["row_updates"]),
                "base_row_updates": base["row_updates"],
                "toggled_row_updates": run["row_updates"],
                "digest_changed": run["digest"] != base["digest"],
                "valid": run["valid"],
            }

    data, rows = {}, []
    for name, per_workload in cells.items():
        deltas = [c["delta_modeled_fps_pct"]
                  for c in per_workload.values()]
        n = len(per_workload)
        summary = {
            "workloads": per_workload,
            "mean_delta_row_updates_pct": sum(
                c["delta_row_updates_pct"]
                for c in per_workload.values()) / n,
            "digest_changed_workloads": sum(
                c["digest_changed"] for c in per_workload.values()),
            "importance": sum(abs(d) for d in deltas) / n / 100.0,
            "all_valid": all(c["valid"] for c in per_workload.values()),
        }
        data[name] = summary
        rows.append(
            [name] + [f"{d:+.2f}" for d in deltas]
            + [f"{summary['mean_delta_row_updates_pct']:+.1f}",
               f"{summary['digest_changed_workloads']}/{n}",
               f"{summary['importance']:.3f}",
               "ok" if summary["all_valid"] else "INVALID"])
    text = format_table(
        ["feature"] + list(BENCHMARKS)
        + ["row updates %", "digest moved", "importance", "valid"],
        rows,
        f"ablation — one-off feature toggles: change in modeled fps (%) "
        f"per Table 3 workload (scale {MATRIX_SCALE:g}, "
        f"{MATRIX_FRAMES} frames, seed {MATRIX_SEED})")
    return data, text


#: name (matches the results/<name>.txt artifact) -> study callable.
STUDIES = {
    "ablation_warmstart": warmstart_study,
    "ablation_autosleep": autosleep_study,
    "ablation_ccd": ccd_study,
    "ablation_broadphase": broadphase_study,
    "ablation_matrix": ablation_matrix,
}
