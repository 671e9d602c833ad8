"""World pipeline, frame reports, breakable joints, prefracture."""

import collections
import functools
import importlib
import inspect

from repro.api import Session, SessionSpec
from repro.engine import World, WorldConfig, scalar
from repro.dynamics import Body, FixedJoint
from repro.fastpath.batch import BatchWorld
from repro.fastpath import kernels as numpy_kernels
from repro.geometry import Box, Plane, Sphere
from repro.math3d import Vec3
from repro.profiling import PARALLEL_PHASES, PHASES, FrameReport


def _world_with_ground(**kwargs):
    world = World(WorldConfig(**kwargs))
    world.add_static_geom(Plane(Vec3(0, 1, 0), 0.0))
    return world


class TestWorldPipeline:
    def test_phase_names(self):
        assert PHASES == ("broadphase", "narrowphase", "island_creation",
                          "island_processing", "cloth")
        assert set(PARALLEL_PHASES) < set(PHASES)

    def test_step_frame_reports_all_phases(self):
        world = _world_with_ground()
        body = Body(position=Vec3(0, 0.4, 0))
        world.attach(body, Sphere(0.5), density=1000.0)
        report = world.step_frame()
        for phase in PHASES:
            assert phase in report
        assert report["broadphase"].get("pairs") >= 1
        assert report["narrowphase"].get("contacts") >= 1
        assert report["island_creation"].get("islands") >= 1

    def test_missing_counter_defaults_to_zero(self):
        world = _world_with_ground()
        report = world.step_frame()  # empty world: nothing to count
        assert report["broadphase"].get("pairs") == 0
        assert report["cloth"].get("vertices") == 0

    def test_substeps_per_frame(self):
        cfg = WorldConfig()
        assert cfg.dt == 0.01
        assert cfg.substeps_per_frame == 3  # 30 FPS frame, paper cadence

    def test_broadphase_selection(self):
        for name in ("brute", "sap", "hash"):
            world = World(WorldConfig(broadphase=name))
            world.add_static_geom(Plane(Vec3(0, 1, 0), 0.0))
            body = Body(position=Vec3(0, 0.4, 0))
            world.attach(body, Sphere(0.5), density=1000.0)
            world.step()
            assert body.is_finite()

    def test_no_collide_filter_for_jointed_bodies(self):
        world = _world_with_ground()
        a = Body(position=Vec3(0, 2, 0))
        b = Body(position=Vec3(0.4, 2, 0))  # overlapping spheres
        world.attach(a, Sphere(0.5), density=500.0)
        world.attach(b, Sphere(0.5), density=500.0)
        from repro.dynamics import BallJoint
        world.add_joint(BallJoint(a, b, Vec3(0.2, 2, 0)))
        report = world.step_frame()
        # The jointed pair produces no contacts with each other; any
        # contacts would be with the ground after falling.
        assert report["narrowphase"].get("contacts") == 0


class TestKillBounds:
    def test_runaway_body_is_culled(self):
        world = World(WorldConfig(world_bounds=50.0))
        bullet = Body(position=Vec3(0, 10, 0))
        bullet.gravity_scale = 0.0
        bullet.linear_velocity = Vec3(200.0, 0, 0)
        world.attach(bullet, Sphere(0.2), density=1000.0)
        for _ in range(100):
            world.step()
        assert not bullet.enabled
        assert world.culled == 1

    def test_bodies_inside_bounds_untouched(self):
        world = _world_with_ground(world_bounds=50.0)
        body = Body(position=Vec3(0, 1, 0))
        world.attach(body, Sphere(0.5), density=1000.0)
        for _ in range(50):
            world.step()
        assert body.enabled
        assert world.culled == 0


class TestBreakableJoints:
    def test_mortar_breaks_under_impact(self):
        world = _world_with_ground()
        base = Body(position=Vec3(0, 0.5, 0))
        top = Body(position=Vec3(0, 1.5, 0))
        world.attach(base, Box(Vec3(0.5, 0.5, 0.5)), density=500.0)
        world.attach(top, Box(Vec3(0.5, 0.5, 0.5)), density=500.0)
        bond = FixedJoint(base, top, break_threshold=10.0)  # weak mortar
        world.add_joint(bond)
        # Hammer blow.
        hammer = Body(position=Vec3(0, 6.0, 0))
        hammer.linear_velocity = Vec3(0, -20.0, 0)
        world.attach(hammer, Sphere(0.4), density=4000.0)
        for _ in range(120):
            world.step()
        assert bond.broken

    def test_strong_bond_holds(self):
        world = _world_with_ground()
        base = Body(position=Vec3(0, 0.5, 0))
        top = Body(position=Vec3(0, 1.5, 0))
        world.attach(base, Box(Vec3(0.5, 0.5, 0.5)), density=500.0)
        world.attach(top, Box(Vec3(0.5, 0.5, 0.5)), density=500.0)
        bond = FixedJoint(base, top, break_threshold=1e9)
        world.add_joint(bond)
        for _ in range(60):
            world.step()
        assert not bond.broken
        # Bond held: top box still sits on the base.
        assert abs(top.position.y - 1.5) < 0.1


class TestPrefracture:
    def test_debris_disabled_until_shatter(self):
        world = _world_with_ground()
        brick = Body(position=Vec3(0, 2, 0))
        brick_geom = world.attach(brick, Box(Vec3(0.3, 0.15, 0.15)),
                                  density=500.0)
        pieces = [Body(position=Vec3(dx, 0, 0))
                  for dx in (-0.15, 0.15)]
        piece_geoms = []
        for piece in pieces:
            piece.enabled = False
            geom = world.attach(piece, Box(Vec3(0.15, 0.15, 0.15)),
                                density=500.0)
            piece_geoms.append(geom)
        pf = world.add_prefractured(brick, brick_geom,
                                    list(zip(pieces, piece_geoms)))
        world.step()
        assert all(not p.enabled for p in pieces)
        pf.fracture()
        assert not brick.enabled
        assert all(p.enabled for p in pieces)
        world.step()  # debris simulates without blowing up
        assert all(p.is_finite() for p in pieces)


# Every entry point bench/layers.py::ENGINE_ENTRY_POINTS times from
# outside, on the object its caller resolves it on.
STAGE_SEAMS = (
    ("repro.engine.world", "World.step"),
    ("repro.engine.world", "build_islands"),
    ("repro.fastpath.batch", "BatchWorld.step_frame"),
    ("repro.fastpath.broadphase", "VectorSweepAndPrune.pairs"),
    ("repro.fastpath.narrowphase", "collide_pairs"),
    ("repro.fastpath.rows", "build_contact_rows"),
    ("repro.fastpath.joints", "build_joint_rows"),
    ("repro.fastpath.solver", "solve_islands"),
    ("repro.fastpath.bodies", "apply_forces"),
    ("repro.fastpath.bodies", "integrate"),
    ("repro.fastpath.cloth", "collider_bounds"),
    ("repro.fastpath.cloth", "step_cloth"),
)


def _count_calls(monkeypatch, owner, attr, record):
    """Patch a late-bound wrapper onto ``owner.attr`` that calls
    ``record()`` before the real function."""
    func = getattr(owner, attr)

    def counting(*args, **kwargs):
        record()
        return func(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)


class TestKernelSets:
    def test_both_sets_expose_the_same_phases(self):
        def phases(module):
            return {name for name, fn in vars(module).items()
                    if inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")}

        # ``narrowphase`` is the phase-2 bookkeeping both ``collide``
        # kernels run, not a phase of its own.
        assert phases(numpy_kernels) == phases(scalar) - {"narrowphase"}
        assert World(backend="scalar").kernels is scalar
        assert World(backend="numpy").kernels is numpy_kernels

    def test_stage_seams_are_late_bound(self, monkeypatch):
        """A wrapper patched onto a stage entry point after import must
        be what a numpy step runs, solo and in a ``BatchWorld``: a kernel
        set that captured the function objects would pass every digest and
        silently zero the benchmark's per-layer timings."""
        fired = set()
        for module_name, path in STAGE_SEAMS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            _count_calls(monkeypatch, owner, attr,
                         functools.partial(fired.add, (module_name, path)))

        def session():
            return Session.create(
                SessionSpec("mix", scale=0.05, backend="numpy"))

        session().step(1)
        assert set(fired) == set(STAGE_SEAMS) - {
            ("repro.fastpath.batch", "BatchWorld.step_frame")}
        fired.clear()
        BatchWorld([session().world, session().world]).step_frame()
        assert set(fired) == set(STAGE_SEAMS)

    def test_per_step_calls_do_not_scale_with_island_count(
            self, monkeypatch):
        """Islands are free parallelism, not host overhead: a sub-step
        makes the same kernel and report calls over 8 islands as over
        64, on both kernel sets."""
        calls = collections.Counter()
        seams = [(kernels, name) for kernels in (scalar, numpy_kernels)
                 for name in ("integrate", "build_rows", "solve")]
        seams += [(FrameReport, name)
                  for name in ("count", "touch", "add_task", "add_tasks")]
        for owner, attr in seams:
            _count_calls(monkeypatch, owner, attr,
                         functools.partial(calls.update, (attr,)))

        def step_calls(backend, free_bodies):
            world = World(backend=backend)
            for i in range(free_bodies):
                world.attach(Body(position=Vec3(3.0 * i, 0, 0)),
                             Sphere(0.5))
            calls.clear()
            world.step()
            assert world.report["island_creation"].get(
                "islands") == free_bodies
            return dict(calls)

        for backend in ("scalar", "numpy"):
            few = step_calls(backend, 8)
            assert few == step_calls(backend, 64)
            assert (few["integrate"], few["build_rows"],
                    few["solve"]) == (1, 1, 1)
