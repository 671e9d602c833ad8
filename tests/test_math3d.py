"""Unit tests for the math3d primitives."""

import math

import pytest

from repro.math3d import (
    Quaternion,
    Transform,
    Vec3,
    box_inertia,
    rotate_inertia,
    shape_mass_inertia,
    sphere_inertia,
)
from repro.geometry import Box, Sphere


def _rotation(yaw, pitch, roll):
    """Y (yaw) * X (pitch) * Z (roll), from axis-angle factors."""
    q = Quaternion.from_axis_angle(Vec3(0, 1, 0), yaw)
    q = q * Quaternion.from_axis_angle(Vec3(1, 0, 0), pitch)
    return (q * Quaternion.from_axis_angle(Vec3(0, 0, 1), roll)).normalized()


class TestVec3:
    def test_arithmetic(self):
        a, b = Vec3(1, 2, 3), Vec3(4, 5, 6)
        assert a + b == Vec3(5, 7, 9)
        assert b - a == Vec3(3, 3, 3)
        assert a * 2 == Vec3(2, 4, 6)
        assert -a == Vec3(-1, -2, -3)
        assert a.dot(b) == 32.0

    def test_cross_right_handed(self):
        assert Vec3(1, 0, 0).cross(Vec3(0, 1, 0)) == Vec3(0, 0, 1)
        assert Vec3(0, 1, 0).cross(Vec3(0, 0, 1)) == Vec3(1, 0, 0)

    def test_length_and_normalized(self):
        v = Vec3(3, 4, 0)
        assert v.length() == 5.0
        n = v.normalized()
        assert abs(n.length() - 1.0) < 1e-12
        # Degenerate input must not blow up.
        assert Vec3().normalized().is_finite()

    def test_any_orthonormal(self):
        for v in (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0.3, -2.0, 5.0)):
            o = v.any_orthonormal()
            assert abs(o.length() - 1.0) < 1e-12
            assert abs(o.dot(v)) < 1e-9


class TestQuaternion:
    def test_normalized_has_unit_norm(self):
        q = Quaternion(2.0, -3.0, 0.5, 1.25).normalized()
        assert abs(q.norm() - 1.0) < 1e-12

    def test_rotation_round_trip(self):
        q = Quaternion.from_axis_angle(Vec3(1, 2, 3).normalized(), 1.1)
        v = Vec3(0.4, -7.0, 2.5)
        back = q.rotate_inverse(q.rotate(v))
        assert back.distance_to(v) < 1e-12

    def test_rotate_matches_matrix(self):
        q = _rotation(yaw=0.7, pitch=-0.3, roll=1.9)
        v = Vec3(1.5, -2.0, 0.25)
        assert q.rotate(v).distance_to(q.to_mat3() * v) < 1e-12

    def test_composition(self):
        qa = Quaternion.from_axis_angle(Vec3(0, 0, 1), 0.5)
        qb = Quaternion.from_axis_angle(Vec3(1, 0, 0), -0.9)
        v = Vec3(2, 3, 4)
        assert (qa * qb).rotate(v).distance_to(qa.rotate(qb.rotate(v))) < 1e-12

    def test_integrated_stays_normalized(self):
        q = Quaternion.identity()
        for _ in range(100):
            q = q.integrated(Vec3(3.0, -5.0, 1.0), 0.01)
        assert abs(q.norm() - 1.0) < 1e-9

    def test_integrated_small_step_matches_axis_angle(self):
        omega = Vec3(0, 2.0, 0)
        q = Quaternion.identity().integrated(omega, 1e-4)
        expected = Quaternion.from_axis_angle(Vec3(0, 1, 0), 2.0 * 1e-4)
        v = Vec3(1, 0, 0)
        assert q.rotate(v).distance_to(expected.rotate(v)) < 1e-8


class TestTransform:
    def test_apply_inverse_round_trip(self):
        t = Transform(Vec3(1, 2, 3),
                      Quaternion.from_axis_angle(Vec3(0, 1, 0), 0.8))
        p = Vec3(-4, 0.5, 9)
        assert t.apply_inverse(t.apply(p)).distance_to(p) < 1e-12

    def test_apply_vector_ignores_translation(self):
        t = Transform(Vec3(100, 100, 100), Quaternion.identity())
        assert t.apply_vector(Vec3(1, 0, 0)) == Vec3(1, 0, 0)


class TestInertia:
    def test_sphere_inertia_formula(self):
        mass, inertia = sphere_inertia(0.5, 1000.0)
        expected_mass = 1000.0 * (4.0 / 3.0) * math.pi * 0.5 ** 3
        assert abs(mass - expected_mass) < 1e-9
        expected_i = 0.4 * expected_mass * 0.5 ** 2
        assert abs(inertia.m[0][0] - expected_i) < 1e-9
        # Spherical symmetry: diagonal and isotropic.
        assert inertia.m[0][0] == inertia.m[1][1] == inertia.m[2][2]
        assert inertia.m[0][1] == 0.0

    def test_box_inertia_formula(self):
        half = Vec3(0.5, 1.0, 1.5)
        mass, inertia = box_inertia(half, 2.0)
        assert abs(mass - 2.0 * 1.0 * 2.0 * 3.0) < 1e-12
        # Ixx = m/12 * (ly^2 + lz^2) with full extents.
        expected_ixx = mass / 12.0 * (2.0 ** 2 + 3.0 ** 2)
        assert abs(inertia.m[0][0] - expected_ixx) < 1e-9
        # The longest axis has the smallest moment.
        assert inertia.m[2][2] < inertia.m[1][1] < inertia.m[0][0]

    def test_shape_mass_inertia_dispatch(self):
        m_sphere, _ = shape_mass_inertia(Sphere(0.5), 1000.0)
        assert abs(m_sphere - sphere_inertia(0.5, 1000.0)[0]) < 1e-12
        m_box, _ = shape_mass_inertia(Box(Vec3(0.5, 0.5, 0.5)), 1000.0)
        assert abs(m_box - 1000.0) < 1e-9

    def test_rotate_inertia_preserves_trace(self):
        _, inertia = box_inertia(Vec3(0.2, 0.7, 0.4), 500.0)
        rot = _rotation(yaw=0.4, pitch=1.1, roll=-0.6).to_mat3()
        rotated = rotate_inertia(inertia, rot)
        trace = sum(inertia.m[i][i] for i in range(3))
        rotated_trace = sum(rotated.m[i][i] for i in range(3))
        assert abs(trace - rotated_trace) < 1e-9


class TestMat3:
    def test_inverse(self):
        m = _rotation(yaw=0.3, pitch=0.2, roll=0.1).to_mat3()
        prod = m * m.inverse()
        for i in range(3):
            for j in range(3):
                assert abs(prod.m[i][j] - (1.0 if i == j else 0.0)) < 1e-12


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
