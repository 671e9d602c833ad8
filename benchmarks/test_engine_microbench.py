"""Engine micro-benchmarks: wall-clock cost of the core kernels.

These time the Python implementation itself (pytest-benchmark statistics),
complementing the modeled-cycles experiments.
"""

from repro.collision import SweepAndPrune, collide
from repro.collision.geom import Geom
from repro.cloth import Cloth
from repro.dynamics import Body, solve_island
from repro.dynamics.joints import ContactJoint
from repro.engine import World
from repro.geometry import Box, Plane, Sphere
from repro.math3d import Vec3
from repro.workloads import get_benchmark


def _sphere_geom(x, y, z, r=0.5):
    body = Body(position=Vec3(x, y, z))
    body.set_mass_from_shape(Sphere(r), 1.0)
    return Geom(Sphere(r), body=body)


def test_bench_broadphase_sap(benchmark):
    geoms = [
        _sphere_geom((i % 20) * 0.9, (i // 20) * 0.9, 0.0)
        for i in range(200)
    ]
    bp = SweepAndPrune()
    pairs = benchmark(bp.pairs, geoms)
    assert pairs


def test_bench_narrowphase_box_box(benchmark):
    a = Body(position=Vec3(0, 0, 0))
    ga = Geom(Box(Vec3(0.5, 0.5, 0.5)), body=a)
    a.set_mass_from_shape(ga.shape, 1.0)
    b = Body(position=Vec3(0.8, 0.2, 0.1))
    gb = Geom(Box(Vec3(0.5, 0.5, 0.5)), body=b)
    b.set_mass_from_shape(gb.shape, 1.0)
    contacts = benchmark(collide, ga, gb)
    assert contacts


def test_bench_solver_iteration(benchmark):
    # A 10-body pile: rows from real contacts, solved repeatedly.
    w = World()
    w.add_static_geom(Plane(Vec3(0, 1, 0)))
    for i in range(10):
        b = Body(position=Vec3((i % 3) * 0.4, 0.4 + 0.45 * i, 0))
        w.attach(b, Sphere(0.3))
    for _ in range(30):
        w.step()
    pairs = w.broadphase.pairs(w.geoms)
    joints = [
        ContactJoint(c)
        for ga, gb in pairs
        for c in collide(ga, gb)
    ]
    rows = []
    for j in joints:
        rows.extend(j.begin_step(0.01, 0.2))
    assert rows
    stats = benchmark(solve_island, rows, 20)
    assert stats.row_updates == 20 * len(rows)


def test_bench_cloth_step(benchmark):
    cloth = Cloth(25, 25, 0.1, Vec3(0, 3, 0), pin_top_row=True)
    stats = benchmark(cloth.step, 0.01, Vec3(0, -9.81, 0))
    assert stats["vertices"] == 625


def test_bench_world_step_ragdoll(benchmark):
    world, _ = get_benchmark("ragdoll").build(scale=0.05)
    from repro.profiling.report import FrameReport

    def step():
        world.report = FrameReport(0)
        world.step()

    benchmark(step)


def test_bench_raycast_world(benchmark):
    import random

    from repro.collision.raycast import raycast_world

    w = World()
    rng = random.Random(2)
    for _ in range(100):
        b = Body(position=Vec3(rng.uniform(-20, 20), rng.uniform(0, 10),
                               rng.uniform(-20, 20)))
        w.attach(b, Sphere(0.5))
    hit = benchmark(
        raycast_world, w, Vec3(-30, 5, 0), Vec3(1, 0, 0)
    )
