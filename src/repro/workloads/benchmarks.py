"""The eight benchmarks of the paper's Table 3, parameterized by scale.

``scale=1.0`` targets the paper's entity counts (30 humanoids, hundreds
to thousands of objects); smaller scales shrink every population
proportionally (Table 1's "parameterization and scaling"), keeping the
same phase structure at tractable pure-Python cost.

Each benchmark builds ``(world, driver)``: the driver is called once per
sub-step and animates the scenario (cannon fire, throttle, explosion
schedules).
"""

from __future__ import annotations

import math
import random

from ..dynamics import Body
from ..cloth import Cloth
from ..engine import World
from ..geometry import Box, Sphere
from ..math3d import Vec3
from ..profiling import mean_report
from . import scenes


def _count(base: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(base * scale)))


class Benchmark:
    def __init__(self, name: str, description: str, builder):
        self.name = name
        self.description = description
        self._builder = builder

    def build(self, scale: float = 1.0, seed: int = 0,
              backend: str = None):
        """Returns (world, driver); driver may be None. ``backend``
        names the world's kernel set (see ``repro.fastpath``)."""
        return self._builder(scale, seed, backend)

    def __repr__(self):
        return f"Benchmark({self.name!r})"


# ---------------------------------------------------------------------------
# builders


def _build_periodic(scale, seed, backend):
    """Bouncing balls/crates in periodic motion (Table 3: Periodic)."""
    rng = random.Random(seed)
    world = World(backend=backend)
    scenes.make_ground(world)
    n = _count(480, scale)
    side = max(2, int(math.sqrt(n)))
    for k in range(n):
        i, j = k % side, k // side
        x = (i - side / 2) * 1.4 + rng.uniform(-0.1, 0.1)
        z = (j - side / 2) * 1.4 + rng.uniform(-0.1, 0.1)
        y = 1.5 + (k % 5) * 0.8
        body = Body(position=Vec3(x, y, z))
        if k % 3 == 0:
            world.attach(body, Box.from_dimensions(0.5, 0.5, 0.5),
                         density=400.0, restitution=0.6)
        else:
            world.attach(body, Sphere(0.3), density=600.0,
                         restitution=0.75)
    return world, None


def _build_ragdoll(scale, seed, backend):
    """Tossed humanoids (Table 3: Ragdoll)."""
    rng = random.Random(seed)
    world = World(backend=backend)
    scenes.make_ground(world)
    n = _count(30, scale)
    side = max(1, int(math.sqrt(n)))
    ragdolls = []
    for k in range(n):
        i, j = k % side, k // side
        base = Vec3((i - side / 2) * 2.0, 0.4 + 0.2 * (k % 3),
                    (j - side / 2) * 2.0)
        doll = scenes.make_humanoid(world, base)
        doll.set_velocity(Vec3(rng.uniform(-1.5, 1.5), rng.uniform(0, 1),
                               rng.uniform(-1.5, 1.5)))
        ragdolls.append(doll)
    return world, None


def _build_continuous(scale, seed, backend):
    """Cars racing over terrain — continuous contact (Table 3)."""
    world = World(backend=backend)
    terrain = scenes.make_terrain(world, extent=60.0, resolution=16,
                                  amplitude=0.4, seed=seed)
    scenes.scatter_obstacles(world, _count(16, scale), area=30.0,
                             seed=seed, terrain=terrain)
    n = _count(8, scale)
    cars = []
    for k in range(n):
        angle = 2 * math.pi * k / n
        x, z = 10 * math.cos(angle), 10 * math.sin(angle)
        car = scenes.make_car(
            world, Vec3(x, terrain.height_at(x, z) + 0.25, z),
            heading=angle + math.pi / 2)
        car.set_throttle(14.0, max_force=700.0)
        forward = car.chassis.orientation.rotate(Vec3(0, 0, 1))
        for body in car.all_bodies():
            body.linear_velocity = forward * 4.0
        cars.append(car)
    return world, None


def _build_breakable(scale, seed, backend):
    """Bonded walls shelled by heavy projectiles (Table 3: Breakable)."""
    world = World(backend=backend)
    scenes.make_ground(world)
    bricks = _count(6, scale, minimum=3)
    walls = _count(3, scale)
    cannons = []
    width = bricks * 2 * scenes.BRICK_HALF.x + 2.0
    for w in range(walls):
        x = (w - (walls - 1) / 2) * width
        scenes.make_wall(world, Vec3(x, 0, 0), bricks_x=bricks,
                         bricks_y=bricks, bonded=True,
                         break_threshold=6.0e3)
        cannons.append(scenes.Cannon(
            world, Vec3(x + 1.0, 1.2, 12.0), Vec3(x, 1.0, 0.0),
            speed=40.0, period_steps=25, explosive=False,
            shell_radius=0.25))
    # A few ragdoll bystanders make the island structure heterogeneous.
    for k in range(_count(4, scale, minimum=1)):
        scenes.make_humanoid(world, Vec3(-6.0 + 4.0 * k, 0.0, 6.0))

    def driver():
        for cannon in cannons:
            cannon.tick()
    return world, driver


def _build_deformable(scale, seed, backend):
    """Cloth-heavy scene (Table 3: Deformable)."""
    world = World(backend=backend)
    scenes.make_ground(world)
    # The paper's 625-vertex drape, kept at full size at every scale:
    # its cost dominates the Cloth phase and (because it is a single CG
    # unit) bounds cloth-phase parallel speedup — the Fig. 7(a) shape.
    big = 25
    drape = Cloth(big, big, 0.1, Vec3(-big * 0.05, 2.2, 0.0),
                  pin_top_row=True)
    drape.ground_height = 0.0
    world.add_cloth(drape)
    # Small uniforms (5x5) over spheres and ragdolls scale the rest of
    # the phase toward the paper's 2,000-vertex total.
    n_small = _count(55, scale)
    for k in range(n_small):
        x = (k % 6 - 2.5) * 1.2
        z = 1.5 + (k // 6) * 1.2
        cloth = Cloth(5, 5, 0.12, Vec3(x, 1.6, z), pin_top_row=False)
        cloth.ground_height = 0.0
        world.add_cloth(cloth)
    for k in range(_count(6, scale, minimum=2)):
        body = Body(position=Vec3((k % 3 - 1) * 1.5, 0.5,
                                  1.8 + (k // 3) * 1.5))
        world.attach(body, Sphere(0.4), density=500.0)
    for k in range(_count(3, scale, minimum=1)):
        scenes.make_humanoid(world, Vec3(-2.0 + 2.0 * k, 0.0, -1.5))
    return world, None


def _build_explosions(scale, seed, backend):
    """Prefractured structures + explosive shells (Table 3: Explosions).

    Full scale targets the paper's 3,459-object count through debris
    multiplication (each brick authors 8 pieces)."""
    world = World(backend=backend)
    scenes.make_ground(world)
    bricks = _count(6, scale, minimum=3)
    walls = _count(4, scale)
    width = bricks * 2 * scenes.BRICK_HALF.x + 2.5
    cannons = []
    for w in range(walls):
        x = (w - (walls - 1) / 2) * width
        scenes.make_wall(world, Vec3(x, 0, 0), bricks_x=bricks,
                         bricks_y=bricks, prefractured=True)
        cannons.append(scenes.Cannon(
            world, Vec3(x, 1.5, 10.0), Vec3(x, 1.0, 0.0),
            speed=35.0, period_steps=18, explosive=True))
    for k in range(_count(6, scale, minimum=1)):
        scenes.make_humanoid(world, Vec3(-4.0 + 3.0 * k, 0.0, 4.0))

    def driver():
        for cannon in cannons:
            cannon.tick()
    return world, driver


def _build_highspeed(scale, seed, backend):
    """Very fast movers vs thin structures (Table 3: Highspeed)."""
    rng = random.Random(seed)
    world = World(backend=backend)
    scenes.make_ground(world)
    bricks = _count(8, scale, minimum=4)
    scenes.make_wall(world, Vec3(0, 0, 0), bricks_x=bricks,
                     bricks_y=_count(5, scale, minimum=3))
    n = _count(24, scale)
    for k in range(n):
        body = Body(position=Vec3(
            rng.uniform(-bricks * 0.3, bricks * 0.3),
            0.4 + 0.25 * (k % 4),
            14.0 + 1.5 * (k // 4)))
        world.attach(body, Sphere(0.15), density=4000.0, friction=0.3)
        body.linear_velocity = Vec3(rng.uniform(-2, 2), 2.0,
                                    -rng.uniform(45.0, 60.0))
        body.gravity_scale = 0.5
    return world, None


def _build_mix(scale, seed, backend):
    """All phenomena combined (Table 3: Mix) at fractional sub-scales."""
    world = World(backend=backend)
    scenes.make_ground(world)
    sub = 0.4 * scale
    for k in range(_count(8, sub)):
        doll = scenes.make_humanoid(
            world, Vec3(-6.0 + 2.0 * k, 0.0, -4.0))
        doll.set_velocity(Vec3(0.5 * (k % 3 - 1), 0, 0.5))
    bricks = _count(5, scale, minimum=3)
    scenes.make_wall(world, Vec3(6, 0, 0), bricks_x=bricks,
                     bricks_y=bricks, bonded=True, break_threshold=6.0e3)
    scenes.make_wall(world, Vec3(-6, 0, 0), bricks_x=bricks,
                     bricks_y=bricks, prefractured=True)
    cannon = scenes.Cannon(world, Vec3(-6, 1.5, 12.0), Vec3(-6, 1.0, 0.0),
                           speed=35.0, period_steps=30, explosive=True)
    # Mix carries the same full-size 625-vertex drape as Deformable
    # (paper Table 4: 2,625 cloth vertices at full scale) ...
    size = 25
    drape = Cloth(size, size, 0.1, Vec3(2.0, 2.0, 3.0), pin_top_row=True)
    drape.ground_height = 0.0
    world.add_cloth(drape)
    # ... plus 5x5 uniforms toward the paper's vertex total.
    for k in range(_count(80, scale)):
        cloth = Cloth(5, 5, 0.12,
                      Vec3((k % 8 - 3.5) * 1.1, 1.7, -2.0 - (k // 8)),
                      pin_top_row=False)
        cloth.ground_height = 0.0
        world.add_cloth(cloth)
    rng = random.Random(seed)
    for k in range(_count(40, sub)):
        body = Body(position=Vec3(rng.uniform(-3, 3),
                                  1.0 + 0.5 * (k % 4),
                                  rng.uniform(4, 8)))
        world.attach(body, Sphere(0.25), density=500.0, restitution=0.5)

    def driver():
        cannon.tick()
    return world, driver


BENCHMARKS = {
    "periodic": Benchmark(
        "periodic", "bodies in periodic bouncing motion", _build_periodic),
    "ragdoll": Benchmark(
        "ragdoll", "tossed articulated humanoids", _build_ragdoll),
    "continuous": Benchmark(
        "continuous", "cars in continuous contact with terrain",
        _build_continuous),
    "breakable": Benchmark(
        "breakable", "mortared walls with breakable joints",
        _build_breakable),
    "deformable": Benchmark(
        "deformable", "cloth drapes and uniforms", _build_deformable),
    "explosions": Benchmark(
        "explosions", "blasts and prefractured debris", _build_explosions),
    "highspeed": Benchmark(
        "highspeed", "very fast movers vs structures", _build_highspeed),
    "mix": Benchmark(
        "mix", "all phenomena combined", _build_mix),
}


def get_benchmark(name: str) -> Benchmark:
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") \
            from None


# ---------------------------------------------------------------------------
# run harness


class BenchmarkRun:
    """A simulated benchmark: per-frame reports + the measured average."""

    def __init__(self, name: str, scale: float, seed: int, world,
                 reports, measure_from: int, health=None, injector=None):
        self.name = name
        self.scale = scale
        self.seed = seed
        self.world = world
        self.reports = reports
        self.measure_from = measure_from
        self.measured = mean_report(reports[measure_from:])
        # Watchdog incident log (repro.resilience.HealthReport) when the
        # run was guarded, and the fault injector when faults were on.
        self.health = health
        self.injector = injector

    def instructions_per_frame(self) -> dict:
        per_phase = self.measured.phase_instructions()
        per_phase["total"] = sum(per_phase.values())
        return per_phase

    def total_instructions(self) -> float:
        """Modeled instructions per measured frame (all phases)."""
        return self.measured.total_instructions()

    def _prefractured_fragments(self) -> int:
        """Fragments pre-fractured at authoring time: bodies held
        together by breakable bonds (mortared walls). The Explosions
        benchmark's debris swaps are blast-triggered whole-body
        replacements, which Table 4 counts under ``objects`` instead.
        """
        bonded = set()
        for joint in self.world.joints:
            if getattr(joint, "break_threshold", None) is None:
                continue
            for body in joint.connected_bodies():
                if body is not None:
                    bonded.add(body.uid)
        return len(bonded)

    def table4_row(self) -> dict:
        m = self.measured
        pairs = m["broadphase"].get("pairs")
        return {
            "benchmark": self.name,
            "objects": len(self.world.dynamic_bodies()),
            "obj_pairs": pairs,
            "object_pairs": pairs,
            "contacts": m["narrowphase"].get("contacts"),
            "islands": m["island_creation"].get("islands"),
            "cloth_objects": len(self.world.cloths),
            "cloth_vertices": sum(c.num_vertices
                                  for c in self.world.cloths),
            "prefractured": self._prefractured_fragments(),
        }

    def __repr__(self):
        return (f"BenchmarkRun({self.name!r}, scale={self.scale},"
                f" frames={len(self.reports)})")


def run_all(scale: float = 1.0, frames: int = 5, measure_from: int = None,
            seed: int = 0) -> dict:
    """Simulate all eight benchmarks: name -> :class:`BenchmarkRun`.

    Uids come from one fresh :class:`~repro.api.UidScope` shared by the
    eight builds (touch-trace addresses derive from uids), so the runs
    depend on the arguments alone, not on what the process built before.
    """
    from ..api import SessionSpec, UidScope, run_scenario
    with UidScope().installed():
        return {
            name: run_scenario(SessionSpec(name, scale=scale, seed=seed),
                               frames=frames, measure_from=measure_from)
            for name in BENCHMARKS
        }
