"""Physics-correctness tests: resting contact, stack stability under
warm starting, energy behaviour, momentum conservation."""

import math
import random

import pytest

from repro.engine import World, WorldConfig
from repro.dynamics import Body
from repro.geometry import Box, Plane, Sphere
from repro.math3d import Quaternion, Vec3, rotate_inertia


def _ground_world(**config_kwargs):
    world = World(WorldConfig(**config_kwargs))
    world.add_static_geom(Plane(Vec3(0, 1, 0), 0.0), friction=0.8)
    return world


class TestRestingContact:
    def test_sphere_comes_to_rest_on_plane(self):
        world = _ground_world()
        ball = Body(position=Vec3(0, 2.0, 0))
        world.attach(ball, Sphere(0.5), density=1000.0)

        for _ in range(300):  # 3 simulated seconds
            world.step()

        # At rest on the plane: center ~ radius above it, tiny velocity,
        # penetration below tolerance.
        assert abs(ball.position.y - 0.5) < 0.01
        penetration = max(0.0, 0.5 - ball.position.y)
        assert penetration < 0.01
        assert ball.linear_velocity.length() < 0.05
        assert ball.kinetic_energy() < 1.0

    def test_energy_decays_after_drop(self):
        world = _ground_world()
        ball = Body(position=Vec3(0, 3.0, 0))
        world.attach(ball, Sphere(0.5), density=1000.0)

        energies = []
        for _ in range(400):
            world.step()
            # Total mechanical energy (KE + PE above the plane).
            pe = ball.mass * 9.81 * ball.position.y
            energies.append(ball.kinetic_energy() + pe)

        # Inelastic contact bleeds energy: the tail must sit far below
        # the early peak and be essentially flat.
        assert energies[-1] < 0.25 * max(energies[:50])
        tail = energies[-50:]
        assert max(tail) - min(tail) < 1.0

    def test_sphere_does_not_tunnel(self):
        world = _ground_world()
        ball = Body(position=Vec3(0, 1.0, 0))
        ball.linear_velocity = Vec3(0, -8.0, 0)
        world.attach(ball, Sphere(0.5), density=1000.0)
        for _ in range(200):
            world.step()
            assert ball.position.y > 0.0  # never below the plane


class TestStackStability:
    def _build_stack(self, warm_starting):
        world = _ground_world(warm_starting=warm_starting)
        half = Vec3(0.5, 0.5, 0.5)
        boxes = []
        for k in range(4):
            body = Body(position=Vec3(0, 0.5 + k * 1.0, 0))
            world.attach(body, Box(half), density=500.0, friction=0.8)
            boxes.append(body)
        return world, boxes

    def test_stack_stable_with_warm_starting(self):
        world, boxes = self._build_stack(warm_starting=True)
        start_x = [b.position.x for b in boxes]
        for _ in range(300):
            world.step()
        for body, x0 in zip(boxes, start_x):
            # Nothing toppled or drifted sideways.
            assert abs(body.position.x - x0) < 0.1
            assert abs(body.position.z) < 0.1
            assert body.linear_velocity.length() < 0.2
        # Heights preserved (no sinking through, no launch).
        tops = sorted(b.position.y for b in boxes)
        for k, y in enumerate(tops):
            assert abs(y - (0.5 + k * 1.0)) < 0.08

    def test_warm_starting_reduces_jitter(self):
        """Warm-started stacks should settle at least as well as cold
        ones; this guards the impulse cache from regressing."""
        def settled_speed(warm):
            world, boxes = self._build_stack(warm_starting=warm)
            for _ in range(240):
                world.step()
            return max(b.linear_velocity.length() for b in boxes)

        warm = settled_speed(True)
        assert warm < 0.2  # warm-started stack is quiescent

    def test_single_box_rests_flush(self):
        world = _ground_world()
        body = Body(position=Vec3(0, 0.6, 0))
        world.attach(body, Box(Vec3(0.5, 0.5, 0.5)), density=500.0)
        for _ in range(200):
            world.step()
        assert abs(body.position.y - 0.5) < 0.01
        # Orientation stays upright: local up maps near world up.
        up = body.orientation.rotate(Vec3(0, 1, 0))
        assert up.distance_to(Vec3(0, 1, 0)) < 0.02


class TestImpulsesAndExplosions:
    def test_explosion_pushes_bodies_outward(self):
        world = _ground_world()
        left = Body(position=Vec3(-1.0, 0.5, 0))
        right = Body(position=Vec3(1.0, 0.5, 0))
        world.attach(left, Sphere(0.5), density=500.0)
        world.attach(right, Sphere(0.5), density=500.0)
        world.explode(Vec3(0, 0.5, 0), radius=5.0, impulse=200.0)
        world.step()
        assert left.linear_velocity.x < -0.1
        assert right.linear_velocity.x > 0.1

    def test_explosion_falloff_with_distance(self):
        world = _ground_world()
        near = Body(position=Vec3(1.0, 0.5, 0))
        far = Body(position=Vec3(4.0, 0.5, 0))
        world.attach(near, Sphere(0.5), density=500.0)
        world.attach(far, Sphere(0.5), density=500.0)
        world.explode(Vec3(0, 0.5, 0), radius=6.0, impulse=200.0)
        world.step()
        assert near.linear_velocity.length() > far.linear_velocity.length()


class TestConservation:
    """With no gravity, no damping and no static geometry, every impulse
    the solver applies is an equal and opposite pair at one contact
    point, so the scalar oracle must conserve the fleet's momentum
    through body-body impacts up to rounding."""

    @staticmethod
    def _colliding_fleet(seed, shape):
        """Six bodies on a ring, thrown at its centre with seeded
        sizes, poses, spins, friction and restitution."""
        rng = random.Random(seed)
        world = World(WorldConfig(gravity=(0, 0, 0), linear_damping=0.0,
                                  angular_damping=0.0), backend="scalar")
        for i in range(6):
            angle = 2.0 * math.pi * i / 6
            position = Vec3(2.0 * math.cos(angle) + rng.uniform(-0.3, 0.3),
                            rng.uniform(-0.3, 0.3),
                            2.0 * math.sin(angle) + rng.uniform(-0.3, 0.3))
            axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1)).normalized()
            body = Body(position=position,
                        orientation=Quaternion.from_axis_angle(
                            axis, rng.uniform(0.0, math.pi)))
            size = rng.uniform(0.3, 0.5)
            geometry = (Sphere(size) if shape == "sphere"
                        else Box(Vec3(size, 0.8 * size, 1.1 * size)))
            world.attach(body, geometry, density=rng.uniform(500, 1500),
                         friction=rng.uniform(0.0, 1.0),
                         restitution=rng.uniform(0.0, 0.9))
            body.linear_velocity = Vec3(
                -position.x, rng.uniform(-0.5, 0.5),
                -position.z) * rng.uniform(0.8, 1.6)
            body.angular_velocity = Vec3(rng.uniform(-3, 3),
                                         rng.uniform(-3, 3),
                                         rng.uniform(-3, 3))
        return world

    @staticmethod
    def _momenta(world):
        """(P, L about the origin, sum of |m v|, sum of the |L| terms):
        the sums are the scales the errors are relative to, since the
        totals themselves can sit near zero."""
        linear, angular = Vec3(), Vec3()
        linear_scale = angular_scale = 0.0
        for body in world.bodies:
            mv = body.linear_velocity * body.mass
            orbital = body.position.cross(mv)
            spin = rotate_inertia(body.inertia_body,
                                  body.orientation.to_mat3()) \
                * body.angular_velocity
            linear = linear + mv
            angular = angular + orbital + spin
            linear_scale += mv.length()
            angular_scale += orbital.length() + spin.length()
        return linear, angular, linear_scale, angular_scale

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", ["sphere", "box"])
    def test_impacts_conserve_momentum(self, shape, seed):
        world = self._colliding_fleet(seed, shape)
        p0, l0, p_scale, l_scale = self._momenta(world)
        contacts = 0
        for _ in range(150):
            contacts += world.step_frame()["narrowphase"].get("contacts",
                                                              0)
        assert contacts > 0  # the fleet really collides
        p1, l1, _, _ = self._momenta(world)
        assert (p1 - p0).length() <= 1e-12 * p_scale
        # Boxes are exempt: ``integrate`` holds omega constant rather
        # than L (no gyroscopic term), so a tumbling box's L drifts by
        # percent even with no contact (EXPERIMENTS.md, "Known
        # divergences"). A sphere's world inertia is isotropic.
        if shape == "sphere":
            assert (l1 - l0).length() <= 1e-11 * l_scale
