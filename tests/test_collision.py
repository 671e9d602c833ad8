"""Broadphase agreement and narrowphase contact tests."""

import random

import pytest

from repro.collision import (
    BROADPHASES,
    BruteForceBroadphase,
    SpatialHashBroadphase,
    SweepAndPrune,
    Geom,
    collide,
)
from repro.collision.ccd import BACKOFF, sweep_clamp
from repro.collision.raycast import ray_heightfield
from repro.dynamics import Body
from repro.engine import World
from repro.geometry import Box, Heightfield, Plane, Sphere
from repro.math3d import Quaternion, Transform, Vec3


def _random_geoms(n, seed, spread=10.0):
    rng = random.Random(seed)
    geoms = []
    for i in range(n):
        body = Body(position=Vec3(rng.uniform(-spread, spread),
                                  rng.uniform(-spread, spread),
                                  rng.uniform(-spread, spread)))
        if i % 2:
            shape = Sphere(rng.uniform(0.3, 1.5))
        else:
            shape = Box(Vec3(rng.uniform(0.3, 1.2),
                             rng.uniform(0.3, 1.2),
                             rng.uniform(0.3, 1.2)))
        g = Geom(shape, body=body)
        g.index = i
        geoms.append(g)
    return geoms


def _pair_set(pairs):
    return {tuple(sorted((ga.index, gb.index))) for ga, gb in pairs}


class TestBroadphaseAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sap_matches_brute_force(self, seed):
        geoms = _random_geoms(40, seed)
        brute = _pair_set(BruteForceBroadphase().pairs(geoms))
        sap = _pair_set(SweepAndPrune().pairs(geoms))
        assert sap == brute
        assert brute  # the scene is dense enough that some pairs exist

    @pytest.mark.parametrize("seed", [0, 5])
    def test_spatial_hash_matches_brute_force(self, seed):
        geoms = _random_geoms(40, seed)
        brute = _pair_set(BruteForceBroadphase().pairs(geoms))
        hashed = _pair_set(SpatialHashBroadphase().pairs(geoms))
        assert hashed == brute

    def test_incremental_sap_tracks_motion(self):
        geoms = _random_geoms(30, seed=7)
        sap = SweepAndPrune()
        rng = random.Random(99)
        for _ in range(5):  # persistent sorted order across frames
            for g in geoms:
                g.body.position += Vec3(rng.uniform(-1, 1),
                                        rng.uniform(-1, 1),
                                        rng.uniform(-1, 1))
            brute = _pair_set(BruteForceBroadphase().pairs(geoms))
            assert _pair_set(sap.pairs(geoms)) == brute

    def test_deterministic_pair_order(self):
        geoms = _random_geoms(25, seed=3)
        first = [(ga.index, gb.index)
                 for ga, gb in SweepAndPrune().pairs(geoms)]
        second = [(ga.index, gb.index)
                  for ga, gb in SweepAndPrune().pairs(geoms)]
        assert first == second

    def test_static_static_pairs_skipped(self):
        geoms = []
        for i in range(3):  # overlapping static geoms
            g = Geom(Sphere(2.0), transform=Transform(Vec3(i * 0.1, 0, 0)))
            g.index = i
            geoms.append(g)
        for cls in (BruteForceBroadphase, SweepAndPrune,
                    SpatialHashBroadphase):
            assert _pair_set(cls().pairs(geoms)) == set()

    def test_registry(self):
        assert set(BROADPHASES) >= {"brute", "sap", "hash"}


class TestNarrowphase:
    def _geom(self, shape, pos, orientation=None):
        body = Body(position=pos, orientation=orientation)
        return Geom(shape, body=body)

    def test_sphere_sphere_contact(self):
        a = self._geom(Sphere(1.0), Vec3(0, 0, 0))
        b = self._geom(Sphere(1.0), Vec3(1.5, 0, 0))
        contacts = collide(a, b)
        assert len(contacts) == 1
        c = contacts[0]
        assert abs(c.depth - 0.5) < 1e-9
        # Normal points from b toward a.
        assert c.normal.distance_to(Vec3(-1, 0, 0)) < 1e-9

    def test_sphere_sphere_separated(self):
        a = self._geom(Sphere(1.0), Vec3(0, 0, 0))
        b = self._geom(Sphere(1.0), Vec3(5, 0, 0))
        assert collide(a, b) == []

    def test_sphere_plane(self):
        plane = Geom(Plane(Vec3(0, 1, 0), 0.0))
        ball = self._geom(Sphere(1.0), Vec3(0, 0.5, 0))
        contacts = collide(ball, plane)
        assert len(contacts) == 1
        c = contacts[0]
        assert abs(c.depth - 0.5) < 1e-9
        assert c.normal.distance_to(Vec3(0, 1, 0)) < 1e-9

    def test_box_plane_manifold(self):
        plane = Geom(Plane(Vec3(0, 1, 0), 0.0))
        box = self._geom(Box(Vec3(0.5, 0.5, 0.5)), Vec3(0, 0.4, 0))
        contacts = collide(box, plane)
        # The whole bottom face penetrates: a multi-point manifold.
        assert len(contacts) >= 3
        for c in contacts:
            assert abs(c.depth - 0.1) < 1e-6
            assert c.normal.distance_to(Vec3(0, 1, 0)) < 1e-9

    def test_box_box_face_contact(self):
        a = self._geom(Box(Vec3(0.5, 0.5, 0.5)), Vec3(0, 0, 0))
        b = self._geom(Box(Vec3(0.5, 0.5, 0.5)), Vec3(0, 0.9, 0))
        contacts = collide(a, b)
        assert contacts
        for c in contacts:
            assert abs(abs(c.normal.y) - 1.0) < 1e-9
            assert 0.0 <= c.depth <= 0.11

    def test_box_box_rotated(self):
        a = self._geom(Box(Vec3(1, 1, 1)), Vec3(0, 0, 0))
        b = self._geom(Box(Vec3(1, 1, 1)), Vec3(0, 1.8, 0),
                       Quaternion.from_axis_angle(Vec3(0, 1, 0), 0.4))
        contacts = collide(a, b)
        assert contacts
        for c in contacts:
            assert c.normal.is_finite()
            assert c.depth >= 0.0

    def test_symmetric_dispatch(self):
        """collide(a, b) and collide(b, a) find the same penetration."""
        plane = Geom(Plane(Vec3(0, 1, 0), 0.0))
        ball = self._geom(Sphere(1.0), Vec3(0, 0.5, 0))
        depth_ab = collide(ball, plane)[0].depth
        depth_ba = collide(plane, ball)[0].depth
        assert abs(depth_ab - depth_ba) < 1e-12

    def test_contact_counters(self):
        geoms = _random_geoms(20, seed=11)
        bp = SweepAndPrune()
        bp.pairs(geoms)
        assert bp.tests >= 0


class TestHeightfieldSweep:
    """``ray_heightfield`` is the CCD sweep's only path for a fast body
    over terrain: the body stops ``BACKOFF`` short of the surface along
    its motion."""

    RADIUS = 0.5

    def _sweep(self, heights, start, motion):
        world = World()
        world.add_static_geom(Heightfield(20.0, heights))
        body = Body(position=start)
        world.attach(body, Sphere(self.RADIUS), density=500.0)
        clamped = sweep_clamp(world, body, motion)
        assert clamped is not None
        return world.geoms[0].shape, clamped, motion.normalized()

    def _assert_backoff_short(self, field, clamped, direction):
        # The sphere's lowest point, moved on by BACKOFF, is on the
        # surface (to the bisection's resolution).
        lowest = clamped - Vec3(0.0, self.RADIUS, 0.0)
        touch = lowest + direction * BACKOFF
        assert abs(touch.y - field.height_at(touch.x, touch.z)) < 1e-5
        assert lowest.y > field.height_at(lowest.x, lowest.z)

    def test_flat_field_clamps_backoff_short(self):
        field, clamped, direction = self._sweep(
            [[0.0] * 3 for _ in range(3)], Vec3(0, 5, 0), Vec3(0, -12, 0))
        self._assert_backoff_short(field, clamped, direction)
        assert abs(clamped.y - (self.RADIUS + BACKOFF)) < 1e-5
        assert clamped.x == 0.0 and clamped.z == 0.0

    def test_sloped_field_clamps_backoff_short(self):
        # Height rises along x from 0 to 10 across the 20 m field.
        field, clamped, direction = self._sweep(
            [[0.0, 10.0], [0.0, 10.0]], Vec3(-2, 9, 1), Vec3(3, -12, 1))
        self._assert_backoff_short(field, clamped, direction)
        assert clamped.x > -2.0 and clamped.y < 9.0

    def test_ray_that_misses_returns_none(self):
        field = Heightfield(20.0, [[0.0, 10.0], [0.0, 10.0]])
        transform = Transform(Vec3())
        origin = Vec3(0, 8, 0)  # 3 m above the surface at x = 0
        assert ray_heightfield(origin, Vec3(0, 1, 0), field,
                               transform, 10.0) is None
        assert ray_heightfield(origin, Vec3(0, -1, 0), field,
                               transform, 2.0) is None
        assert ray_heightfield(origin, Vec3(0, -1, 0), field,
                               transform, 4.0) is not None
