"""Scene builders: the reusable actors of the paper's benchmark suite.

Humanoid ragdolls, mortared/prefractured brick walls, cars, rolling
terrain, obstacle fields, and cannons — the building blocks the Table 3
benchmarks (and the examples) assemble. Every builder takes explicit
seeds/positions so scenes are bit-deterministic.
"""

from __future__ import annotations

import math
import random

from ..collision import Geom
from ..dynamics import BallJoint, Body, FixedJoint, HingeJoint
from ..geometry import Box, Heightfield, Plane, Sphere
from ..math3d import Quaternion, Transform, Vec3

__all__ = [
    "Humanoid",
    "Car",
    "Cannon",
    "make_humanoid",
    "make_wall",
    "make_car",
    "make_terrain",
    "scatter_obstacles",
    "make_ground",
]


def make_ground(world, height: float = 0.0, friction: float = 0.8):
    return world.add_static_geom(Plane(Vec3(0, 1, 0), height),
                                 friction=friction)


# ---------------------------------------------------------------------------
# Humanoid ragdoll (the paper's 16-segment articulated figure)


class Humanoid:
    def __init__(self, bodies: dict, joints: list):
        self.bodies = bodies
        self.joints = joints

    def set_velocity(self, velocity: Vec3):
        for body in self.bodies.values():
            body.linear_velocity = velocity.copy()


def make_humanoid(world, base: Vec3, density: float = 900.0) -> Humanoid:
    """A 16-segment ragdoll standing on ``base`` (feet at base.y)."""

    bodies = {}
    joints = []

    def part(name, shape, x, y, z):
        body = Body(position=base + Vec3(x, y, z))
        geom = world.attach(body, shape, density=density, friction=0.7)
        geom.collision_group = ("humanoid", bodies_id)
        bodies[name] = body
        return body

    # Unique per humanoid (self-collision off): the uid the first part
    # will draw. JSON-native and reproducible under snapshot rebuild,
    # unlike an `object()` sentinel.
    bodies_id = Body._next_uid

    # Trunk (4 segments) + head.
    part("pelvis", Box(Vec3(0.16, 0.08, 0.10)), 0.0, 0.96, 0.0)
    part("abdomen", Box(Vec3(0.15, 0.08, 0.09)), 0.0, 1.12, 0.0)
    part("torso", Box(Vec3(0.17, 0.12, 0.10)), 0.0, 1.32, 0.0)
    part("head", Sphere(0.11), 0.0, 1.58, 0.0)

    # Arms: upper + forearm per side (hands folded into forearms).
    for side, sx in (("l", -1.0), ("r", 1.0)):
        part(f"upper_arm_{side}", Box(Vec3(0.05, 0.14, 0.05)),
             sx * 0.26, 1.30, 0.0)
        part(f"forearm_{side}", Box(Vec3(0.04, 0.13, 0.04)),
             sx * 0.26, 1.02, 0.0)
        part(f"hand_{side}", Sphere(0.05), sx * 0.26, 0.84, 0.0)

    # Legs: thigh + shin + foot per side.
    for side, sx in (("l", -1.0), ("r", 1.0)):
        part(f"thigh_{side}", Box(Vec3(0.07, 0.19, 0.07)),
             sx * 0.10, 0.68, 0.0)
        part(f"shin_{side}", Box(Vec3(0.05, 0.18, 0.05)),
             sx * 0.10, 0.30, 0.0)
        part(f"foot_{side}", Box(Vec3(0.05, 0.04, 0.11)),
             sx * 0.10, 0.06, 0.03)

    def ball(a, b, x, y, z):
        j = BallJoint(bodies[a], bodies[b], base + Vec3(x, y, z))
        joints.append(world.add_joint(j))

    def hinge(a, b, x, y, z, axis):
        j = HingeJoint(bodies[a], bodies[b], base + Vec3(x, y, z), axis)
        joints.append(world.add_joint(j))

    lateral = Vec3(1, 0, 0)
    ball("pelvis", "abdomen", 0.0, 1.04, 0.0)
    ball("abdomen", "torso", 0.0, 1.20, 0.0)
    ball("torso", "head", 0.0, 1.47, 0.0)
    for side, sx in (("l", -1.0), ("r", 1.0)):
        ball("torso", f"upper_arm_{side}", sx * 0.23, 1.42, 0.0)
        hinge(f"upper_arm_{side}", f"forearm_{side}",
              sx * 0.26, 1.16, 0.0, lateral)
        ball(f"forearm_{side}", f"hand_{side}", sx * 0.26, 0.89, 0.0)
        ball("pelvis", f"thigh_{side}", sx * 0.10, 0.88, 0.0)
        hinge(f"thigh_{side}", f"shin_{side}",
              sx * 0.10, 0.49, 0.0, lateral)
        hinge(f"shin_{side}", f"foot_{side}",
              sx * 0.10, 0.11, 0.0, lateral)

    return Humanoid(bodies, joints)


# ---------------------------------------------------------------------------
# Brick walls: plain, bonded (breakable mortar), prefractured


BRICK_HALF = Vec3(0.30, 0.15, 0.15)


def make_wall(world, base: Vec3, bricks_x: int = 4, bricks_y: int = 4,
              prefractured: bool = False, bonded: bool = False,
              break_threshold: float = 1.0e4, density: float = 600.0):
    """A wall of boxes in the xy plane centered on base.x.

    ``bonded`` mortars neighboring bricks with breakable fixed joints;
    ``prefractured`` registers each brick to shatter into 8 debris
    pieces when caught in a blast. Returns the list of brick bodies.
    """
    bricks = []
    grid = {}
    width = bricks_x * 2 * BRICK_HALF.x
    for j in range(bricks_y):
        for i in range(bricks_x):
            x = base.x - 0.5 * width + BRICK_HALF.x * (2 * i + 1)
            y = base.y + BRICK_HALF.y * (2 * j + 1) + 0.001 * j
            body = Body(position=Vec3(x, y, base.z))
            geom = world.attach(body, Box(BRICK_HALF), density=density,
                                friction=0.8)
            bricks.append(body)
            grid[(i, j)] = body
            if prefractured:
                _register_prefracture(world, body, geom, density)

    if bonded:
        for (i, j), body in grid.items():
            if (i + 1, j) in grid:
                world.add_joint(FixedJoint(body, grid[(i + 1, j)],
                                           break_threshold))
            if (i, j + 1) in grid:
                world.add_joint(FixedJoint(body, grid[(i, j + 1)],
                                           break_threshold))
    return bricks


def _register_prefracture(world, body, geom, density):
    """Author 8 half-size debris boxes (disabled until fracture)."""
    half = Vec3(0.5 * BRICK_HALF.x, 0.5 * BRICK_HALF.y,
                0.5 * BRICK_HALF.z)
    debris = []
    group = ("debris", body.uid)
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                # Debris positions are authored as offsets local to the
                # parent brick; fracture() maps them into world space.
                piece = Body(position=Vec3(sx * half.x, sy * half.y,
                                           sz * half.z))
                piece_geom = world.attach(piece, Box(half),
                                          density=density, friction=0.8)
                piece_geom.collision_group = group
                debris.append((piece, piece_geom))
    world.add_prefractured(body, geom, debris)


# ---------------------------------------------------------------------------
# Cars: chassis + four motorized wheels


class Car:
    def __init__(self, chassis, wheels, axles):
        self.chassis = chassis
        self.wheels = wheels
        self.axles = axles  # hinge joints, one per wheel

    def all_bodies(self):
        return [self.chassis] + list(self.wheels)

    def set_throttle(self, wheel_speed: float, max_force: float = 400.0):
        """Drive all wheels toward ``wheel_speed`` rad/s."""
        for axle in self.axles:
            axle.set_motor(wheel_speed, max_force)

def make_car(world, base: Vec3, heading: float = 0.0) -> Car:
    """A car resting on ``base`` pointing along its local +z rotated by
    ``heading`` around y."""
    q = Quaternion.from_axis_angle(Vec3(0, 1, 0), heading)
    wheel_r = 0.35
    chassis_half = Vec3(0.70, 0.22, 1.30)
    clearance = 0.18  # chassis floor above the axle line

    def to_world(local: Vec3) -> Vec3:
        return base + q.rotate(local)

    chassis = Body(position=to_world(Vec3(0, wheel_r + clearance, 0)),
                   orientation=q)
    chassis_geom = world.attach(chassis, Box(chassis_half),
                                density=260.0, friction=0.4)
    group = ("car", chassis.uid)
    chassis_geom.collision_group = group

    wheels = []
    axles = []
    for sx, sz in ((-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)):
        center = to_world(Vec3(sx * 0.72, wheel_r, sz * 0.95))
        wheel = Body(position=center, orientation=q)
        wheel_geom = world.attach(wheel, Sphere(wheel_r), density=500.0,
                                  friction=1.4)
        wheel_geom.collision_group = group
        axle_axis = q.rotate(Vec3(1, 0, 0))
        axle = HingeJoint(chassis, wheel, center, axle_axis)
        world.add_joint(axle)
        wheels.append(wheel)
        axles.append(axle)
    return Car(chassis, wheels, axles)


# ---------------------------------------------------------------------------
# Terrain + obstacles


def make_terrain(world, extent: float = 80.0, resolution: int = 24,
                 amplitude: float = 0.6, seed: int = 0) -> Heightfield:
    """Rolling heightfield terrain: smooth seeded sum of sinusoids."""
    rng = random.Random(seed)
    waves = [
        (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
         rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 1.0))
        for _ in range(4)
    ]
    n = resolution
    heights = []
    for j in range(n + 1):
        row = []
        for i in range(n + 1):
            u = (i / n - 0.5) * 2 * math.pi
            v = (j / n - 0.5) * 2 * math.pi
            h = sum(
                w * math.sin(fu * u + phase) * math.cos(fv * v)
                for fu, fv, phase, w in waves
            )
            row.append(amplitude * h / len(waves) * 2.0)
        heights.append(row)
    terrain = Heightfield(extent, heights)
    world.add_static_geom(terrain, friction=1.0)
    return terrain


def scatter_obstacles(world, count: int, area: float = 50.0,
                      seed: int = 0, terrain: Heightfield = None):
    """Static box obstacles scattered in ``[-area/2, area/2]^2``."""
    rng = random.Random(seed)
    obstacles = []
    for _ in range(count):
        x = rng.uniform(-0.5 * area, 0.5 * area)
        z = rng.uniform(-0.5 * area, 0.5 * area)
        half = Vec3(rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.9),
                    rng.uniform(0.3, 0.8))
        y = (terrain.height_at(x, z) if terrain is not None else 0.0)
        geom = Geom(Box(half), body=None,
                    transform=Transform(Vec3(x, y + half.y * 0.8, z)),
                    friction=0.9)
        world.add_static_geom(geom)
        obstacles.append(geom)
    return obstacles


# ---------------------------------------------------------------------------
# Cannon: periodic projectiles, optionally explosive


#: An explosive shell's blast sphere: radius (m) and total impulse.
BLAST_RADIUS = 2.5
BLAST_IMPULSE = 900.0


class Cannon:
    """Fires spheres from ``position`` toward ``target`` every
    ``period_steps`` sub-steps. Explosive shells detonate on contact."""

    def __init__(self, world, position: Vec3, target: Vec3,
                 speed: float = 30.0, period_steps: int = 20,
                 explosive: bool = False, shell_radius: float = 0.18):
        self.world = world
        self.position = position
        self.target = target
        self.speed = speed
        self.period_steps = period_steps
        self.explosive = explosive
        self.shell_radius = shell_radius
        self.steps = 0
        self.shells = []
        self.fired = 0
        self.detonations = 0
        # Cannons are stateful mid-run spawners: register with the
        # world so checkpoints roll their state back too. The actor
        # slot doubles as a reproducible collision-group tag (id(self)
        # would differ across a snapshot rebuild in another process).
        self.actor_slot = len(world.actors)
        world.register_actor(self)

    def tick(self):
        """Call once per sub-step (this is the benchmark 'driver')."""
        if self.steps % self.period_steps == 0:
            self._fire()
        self.steps += 1
        self._check_impacts()

    def _fire(self):
        direction = (self.target - self.position).normalized()
        shell = Body(position=self.position)
        geom = self.world.attach(shell, Sphere(self.shell_radius),
                                 density=2500.0, friction=0.6)
        geom.collision_group = ("cannon", self.actor_slot)
        shell.linear_velocity = direction * self.speed
        shell.gravity_scale = 0.3  # flat-ish trajectory
        self.shells.append(shell)
        self.fired += 1

    # -- checkpointing --------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "kind": "cannon",
            "steps": self.steps,
            "fired": self.fired,
            "detonations": self.detonations,
            "shell_uids": [shell.uid for shell in self.shells],
        }

    def restore_state(self, state: dict):
        self.steps = state["steps"]
        self.fired = state["fired"]
        self.detonations = state["detonations"]
        by_uid = {b.uid: b for b in self.world.bodies}
        self.shells = [by_uid[uid] for uid in state["shell_uids"]
                       if uid in by_uid]
        return self

    def _check_impacts(self):
        still_tracked = []
        for shell in self.shells:
            if not shell.enabled:
                continue
            hit = self.world.body_had_contact(shell)
            fallen = shell.position.y < self.shell_radius * 1.5
            if hit or fallen:
                if self.explosive:
                    self.world.explode(shell.position, BLAST_RADIUS,
                                       BLAST_IMPULSE)
                    self.detonations += 1
                    shell.enabled = False
                # Inert shells keep their momentum; either way the
                # cannon stops tracking them after impact.
            else:
                still_tracked.append(shell)
        self.shells = still_tracked
