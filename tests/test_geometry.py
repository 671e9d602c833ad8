"""AABB and shape tests."""

import math

from repro.geometry import AABB, Box, Heightfield, Plane, Sphere
from repro.math3d import Quaternion, Transform, Vec3


class TestAABB:
    def test_overlaps_symmetric(self):
        a = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        b = AABB(Vec3(0.5, 0.5, 0.5), Vec3(2, 2, 2))
        c = AABB(Vec3(3, 3, 3), Vec3(4, 4, 4))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_touching_boxes_overlap(self):
        a = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        b = AABB(Vec3(1, 0, 0), Vec3(2, 1, 1))
        assert a.overlaps(b)

    def test_separated_on_one_axis_only(self):
        a = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        # Overlapping in x and y but not z.
        b = AABB(Vec3(0, 0, 5), Vec3(1, 1, 6))
        assert not a.overlaps(b)


class TestShapes:
    def test_sphere_aabb(self):
        box = Sphere(2.0).aabb(Transform(Vec3(1, 2, 3)))
        assert box.min == Vec3(-1, 0, 1)
        assert box.max == Vec3(3, 4, 5)

    def test_box_aabb_rotation_invariant_bound(self):
        shape = Box(Vec3(1, 0.5, 0.25))
        t = Transform(Vec3(), Quaternion.from_axis_angle(Vec3(0, 0, 1),
                                                         math.pi / 4))
        box = shape.aabb(t)
        eps = 1e-9  # for fp rounding
        # Every rotated corner must be inside the AABB.
        for corner in shape.corners():
            p = t.apply(corner)
            assert all(lo - eps <= v <= hi + eps
                       for lo, v, hi in zip(box.min, p, box.max))

    def test_box_corners(self):
        corners = Box(Vec3(1, 2, 3)).corners()
        assert len(corners) == 8
        assert Vec3(1, 2, 3) in corners and Vec3(-1, -2, -3) in corners

    def test_plane_signed_distance(self):
        plane = Plane(Vec3(0, 1, 0), 0.0)
        assert plane.signed_distance(Vec3(0, 2, 0)) == 2.0
        assert plane.signed_distance(Vec3(5, -1, 5)) == -1.0

    def test_heightfield_sampling(self):
        # Flat field at height 2 everywhere.
        hf = Heightfield(10.0, [[2.0] * 4 for _ in range(4)])
        assert abs(hf.height_at(0.0, 0.0) - 2.0) < 1e-12
        assert abs(hf.height_at(3.3, -4.7) - 2.0) < 1e-12
        n = hf.normal_at(0.0, 0.0)
        assert n.distance_to(Vec3(0, 1, 0)) < 1e-9

    def test_heightfield_bilinear(self):
        # Ramp in x: height == x/extent scaled across samples.
        hf = Heightfield(1.0, [[0.0, 1.0], [0.0, 1.0]])
        h_mid = hf.height_at(0.0, 0.0)
        assert abs(h_mid - 0.5) < 1e-9

    def test_bounding_radius(self):
        assert Sphere(1.5).bounding_radius() == 1.5
        assert abs(Box(Vec3(1, 1, 1)).bounding_radius()
                   - math.sqrt(3.0)) < 1e-12
