"""Focused single-mechanism ablation scenes.

These are the four original ad-hoc ablation studies (warm starting,
auto-sleep, CCD, broadphase strategy).  ``python -m repro.analysis``
regenerates ``results/ablation_*.txt`` from them and
``tests/test_paper_shapes.py`` asserts each mechanism is load-bearing.

Unlike the :class:`~repro.ablation.runner.AblationRunner` matrix —
which toggles features on the Table 3 workloads and scores importance —
each study here uses a purpose-built scene that isolates its mechanism
(a box stack for warm starting, a quiescent grid for sleep, a bullet
vs a thin wall for CCD).  Output text is byte-compatible with the
historical scripts.  Every study is scale-independent and returns
``(rows, text)``.
"""

from __future__ import annotations

import random

from ..analysis.tables import format_table
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

__all__ = ["warmstart_study", "autosleep_study", "ccd_study",
           "broadphase_study", "STUDIES"]


def _ground(**cfg):
    w = World(WorldConfig(**cfg))
    w.add_static_geom(Plane(Vec3(0, 1, 0), 0.0))
    return w


def _stack_error(warm, iterations, steps=200, height=6):
    w = _ground(warm_starting=warm, solver_iterations=iterations)
    boxes = []
    for i in range(height):
        b = Body(position=Vec3(0, 0.5 + 1.001 * i, 0))
        w.attach(b, Box.from_dimensions(1, 1, 1))
        boxes.append(b)
    for _ in range(steps):
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
        ("spatial-hash", SpatialHashBroadphase(cell_size=2.0)),
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


#: name (matches the results/<name>.txt artifact) -> study callable.
STUDIES = {
    "ablation_warmstart": warmstart_study,
    "ablation_autosleep": autosleep_study,
    "ablation_ccd": ccd_study,
    "ablation_broadphase": broadphase_study,
}
