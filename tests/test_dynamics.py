"""Solver, island, and joint unit tests."""

from repro.dynamics import (
    BallJoint,
    Body,
    ContactJoint,
    FixedJoint,
    Row,
    UnionFind,
    build_islands,
    solve_island,
)
from repro.collision import Geom, collide
from repro.geometry import Sphere
from repro.math3d import Vec3


def _dynamic_body(pos, mass=1.0):
    body = Body(position=pos)
    body.set_mass_from_shape(Sphere(0.5), density=mass / 0.5236)
    return body


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind(6)
        assert uf.union(0, 1)
        assert uf.union(2, 3)
        assert not uf.union(1, 0)  # already merged
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) == uf.find(3)
        assert uf.find(0) != uf.find(4)

    def test_transitive(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)


class TestIslands:
    def test_two_disjoint_islands(self):
        bodies = [_dynamic_body(Vec3(i, 0, 0)) for i in range(4)]
        for i, b in enumerate(bodies):
            b.index = i
        j01 = BallJoint(bodies[0], bodies[1], Vec3(0.5, 0, 0))
        j23 = BallJoint(bodies[2], bodies[3], Vec3(2.5, 0, 0))
        islands, merges = build_islands(bodies, [], [j01, j23])
        with_constraints = [isl for isl in islands if isl.joints]
        assert len(with_constraints) == 2
        assert merges >= 2

    def test_static_does_not_merge(self):
        """Two dynamic bodies touching the same static geom must stay in
        separate islands (the paper's island definition excludes
        statics)."""
        a = _dynamic_body(Vec3(0, 1, 0))
        b = _dynamic_body(Vec3(10, 1, 0))
        a.index, b.index = 0, 1
        static_geom = Geom(Sphere(0.5))

        class FakeContactJoint:
            def __init__(self, body):
                self._body = body
                self.enabled = True
                self.broken = False

            def connected_bodies(self):
                return (self._body, None)

        islands, _ = build_islands(
            [a, b], [FakeContactJoint(a), FakeContactJoint(b)], [])
        populated = [isl for isl in islands if isl.contact_joints]
        assert len(populated) == 2

    def test_island_order_deterministic(self):
        bodies = [_dynamic_body(Vec3(i, 0, 0)) for i in range(6)]
        for i, b in enumerate(bodies):
            b.index = i
        joints = [BallJoint(bodies[4], bodies[5], Vec3(4.5, 0, 0)),
                  BallJoint(bodies[0], bodies[1], Vec3(0.5, 0, 0))]
        islands, _ = build_islands(bodies, [], joints)
        populated = [isl for isl in islands if isl.joints]
        firsts = [min(b.index for b in isl.bodies) for isl in populated]
        assert firsts == sorted(firsts)


class TestSolver:
    def test_row_updates_accounting(self):
        a = _dynamic_body(Vec3(0, 0, 0))
        b = _dynamic_body(Vec3(1, 0, 0))
        rows = [Row(a, b, Vec3(1, 0, 0), Vec3(), Vec3(-1, 0, 0), Vec3(),
                    rhs=0.0) for _ in range(3)]
        stats = solve_island(rows, 20)
        assert stats.row_updates == 20 * len(rows)
        assert stats.iterations == 20

    def test_normal_row_stops_approach(self):
        """A contact-like row should cancel the approach velocity."""
        a = _dynamic_body(Vec3(0, 0, 0))
        b = _dynamic_body(Vec3(1, 0, 0))
        a.linear_velocity = Vec3(1, 0, 0)   # a moving toward b
        n = Vec3(-1, 0, 0)                  # normal from b toward a
        row = Row(a, b, n, Vec3(), -n, Vec3(), rhs=0.0, lo=0.0, hi=1e18)
        solve_island([row], 20)
        rel = (a.linear_velocity - b.linear_velocity).dot(n)
        assert rel >= -1e-9  # no longer approaching

    def test_impulse_clamped_to_bounds(self):
        a = _dynamic_body(Vec3(0, 0, 0))
        b = _dynamic_body(Vec3(1, 0, 0))
        a.linear_velocity = Vec3(10, 0, 0)
        n = Vec3(-1, 0, 0)
        row = Row(a, b, n, Vec3(), -n, Vec3(), rhs=0.0, lo=-0.1, hi=0.1)
        solve_island([row], 20)
        assert -0.1 - 1e-12 <= row.impulse <= 0.1 + 1e-12


class TestJoints:
    def test_contact_joint_builds_three_rows(self):
        a = Geom(Sphere(1.0), body=_dynamic_body(Vec3(0, 0, 0)))
        b = Geom(Sphere(1.0), body=_dynamic_body(Vec3(1.5, 0, 0)))
        contact = collide(a, b)[0]
        joint = ContactJoint(contact)
        rows = joint.begin_step(0.01, 0.2)
        assert len(rows) == 3  # one normal + two friction rows
        normal_row, f1, f2 = rows
        assert normal_row.lo == 0.0  # contacts push, never pull
        # Friction rows reference the normal row for the cone clamp.
        assert f1.friction_of is normal_row
        assert f2.friction_of is normal_row

    def test_ball_joint_anchor_error(self):
        a = _dynamic_body(Vec3(0, 0, 0))
        b = _dynamic_body(Vec3(1, 0, 0))
        joint = BallJoint(a, b, Vec3(0.5, 0, 0))
        assert joint.anchor_error() < 1e-12
        b.position = Vec3(1, 0.3, 0)  # drift apart
        assert abs(joint.anchor_error() - 0.3) < 1e-9

    def test_fixed_joint_breaks_over_threshold(self):
        a = _dynamic_body(Vec3(0, 0, 0))
        b = _dynamic_body(Vec3(1, 0, 0))
        joint = FixedJoint(a, b, break_threshold=1e-6)
        rows = joint.begin_step(0.01, 0.2)
        joint.impulses = (10.0,) * len(rows)  # huge reaction
        joint.end_step(0.01)
        assert joint.broken

    def test_fixed_joint_survives_under_threshold(self):
        a = _dynamic_body(Vec3(0, 0, 0))
        b = _dynamic_body(Vec3(1, 0, 0))
        joint = FixedJoint(a, b, break_threshold=1e9)
        joint.begin_step(0.01, 0.2)
        joint.end_step(0.01)
        assert not joint.broken
