"""Joints: constraints compiled to solver rows each step.

All joints follow the same protocol the island processor drives:

* ``begin_step(dt, erp)`` — build and return this step's :class:`Row`
  list (world-space Jacobians + Baumgarte bias from position error);
* ``end_step(dt)`` — inspect accumulated impulses (only a
  :class:`FixedJoint` with a ``break_threshold`` does: breakage).

``solve_island`` (and the numpy kernel set's C sweep) leaves each
solved constraint's accumulated impulses on it as ``impulses``, one per
row in row order; that tuple, not the rows, is what the world, breakage
and snapshots read (the numpy kernel set builds no ``Row`` at all).

Contact normals point from ``body_b`` toward ``body_a``.
"""

from __future__ import annotations

import math

from ..math3d import Vec3
from .solver import Row

#: Error-reduction parameter: the share of a step's position error the
#: Baumgarte bias corrects (ODE's default).
ERP = 0.2


class Joint:
    def __init__(self, body_a, body_b):
        self.body_a = body_a
        self.body_b = body_b
        self.enabled = True
        self.broken = False
        self.impulses = ()  # per row, from the last solve

    def connected_bodies(self):
        return (self.body_a, self.body_b)

    def begin_step(self, dt: float, erp: float = ERP):
        raise NotImplementedError

    def end_step(self, dt: float):
        """Nothing to inspect: only a :class:`FixedJoint` can break."""

    # -- checkpointing --------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-native dynamic state. ``impulses`` (the accumulated
        impulses of the last solve) are recorded for forensics; rows are
        rebuilt from scratch each ``begin_step`` so they need no
        restoring."""
        return {
            "enabled": self.enabled,
            "broken": self.broken,
            "impulses": list(self.impulses),
        }

    def restore_state(self, state: dict):
        self.enabled = state["enabled"]
        self.broken = state["broken"]
        return self

    def _anchor_rows(self, dt, erp, anchor_local_a, anchor_local_b):
        """Three rows pinning a local point of each body together."""
        a, b = self.body_a, self.body_b
        ra = a.orientation.rotate(anchor_local_a)
        rb = b.orientation.rotate(anchor_local_b)
        world_a = a.position + ra
        world_b = b.position + rb
        error = world_a - world_b
        rows = []
        beta = erp / dt
        for axis in (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)):
            rows.append(Row(
                a, b,
                lin_a=axis, ang_a=ra.cross(axis),
                lin_b=-axis, ang_b=-(rb.cross(axis)),
                rhs=-beta * error.dot(axis),
                joint=self,
            ))
        return rows


class ContactJoint(Joint):
    """One contact point: a unilateral normal row + two friction rows."""

    # Restitution only kicks in above this approach speed (m/s), so
    # resting contacts don't jitter.
    RESTITUTION_THRESHOLD = 1.0
    PENETRATION_SLOP = 0.005
    MAX_BIAS_VELOCITY = 4.0

    def __init__(self, contact, friction: float = None,
                 restitution: float = None):
        geom_a, geom_b = contact.geom_a, contact.geom_b
        super().__init__(geom_a.body, geom_b.body)
        self.contact = contact
        if friction is None:
            friction = math.sqrt(
                max(0.0, geom_a.friction * geom_b.friction))
        if restitution is None:
            restitution = max(geom_a.restitution, geom_b.restitution)
        self.friction = friction
        self.restitution = restitution

    @property
    def cache_key(self):
        c = self.contact
        return (c.geom_a.index, c.geom_b.index, c.feature)

    def begin_step(self, dt: float, erp: float = ERP):
        c = self.contact
        a, b = self.body_a, self.body_b
        n = c.normal
        ra = c.position - a.position if a is not None else Vec3()
        rb = c.position - b.position if b is not None else Vec3()

        # Normal row: push apart; Baumgarte bias for penetration depth.
        bias = min(
            erp / dt * max(0.0, c.depth - self.PENETRATION_SLOP),
            self.MAX_BIAS_VELOCITY,
        )
        rhs = bias
        vn = self._normal_velocity(n, ra, rb)
        if self.restitution > 0.0 and vn < -self.RESTITUTION_THRESHOLD:
            rhs = max(rhs, -self.restitution * vn)
        normal_row = Row(
            a, b,
            lin_a=n, ang_a=ra.cross(n),
            lin_b=-n, ang_b=-(rb.cross(n)),
            rhs=rhs, lo=0.0, hi=float("inf"),
            joint=self,
        )

        rows = [normal_row]
        if self.friction > 0.0:
            t1 = n.any_orthonormal()
            t2 = n.cross(t1)
            tangents = []
            for t in (t1, t2):
                tangents.append(Row(
                    a, b,
                    lin_a=t, ang_a=ra.cross(t),
                    lin_b=-t, ang_b=-(rb.cross(t)),
                    rhs=0.0,
                    friction_of=normal_row,
                    friction_coeff=self.friction,
                    joint=self,
                ))
            rows.extend(tangents)
        self.rows = rows
        return rows

    def _normal_velocity(self, n, ra, rb) -> float:
        v = Vec3()
        if self.body_a is not None:
            v = v + self.body_a.linear_velocity \
                + self.body_a.angular_velocity.cross(ra)
        if self.body_b is not None:
            v = v - self.body_b.linear_velocity \
                - self.body_b.angular_velocity.cross(rb)
        return n.dot(v)


class BallJoint(Joint):
    """Point-to-point constraint (shoulders, hips, chain links)."""

    def __init__(self, body_a, body_b, anchor_world: Vec3):
        super().__init__(body_a, body_b)
        self.anchor_local_a = body_a.orientation.rotate_inverse(
            anchor_world - body_a.position)
        self.anchor_local_b = body_b.orientation.rotate_inverse(
            anchor_world - body_b.position)

    def anchor_error(self) -> float:
        wa = self.body_a.transform.apply(self.anchor_local_a)
        wb = self.body_b.transform.apply(self.anchor_local_b)
        return wa.distance_to(wb)

    def begin_step(self, dt: float, erp: float = ERP):
        self.rows = self._anchor_rows(dt, erp, self.anchor_local_a,
                                      self.anchor_local_b)
        return self.rows


class HingeJoint(Joint):
    """Ball joint + axis alignment, with an optional motor (the cars'
    driven axles)."""

    def __init__(self, body_a, body_b, anchor_world: Vec3,
                 axis_world: Vec3):
        super().__init__(body_a, body_b)
        axis_world = axis_world.normalized()
        self.anchor_local_a = body_a.orientation.rotate_inverse(
            anchor_world - body_a.position)
        self.anchor_local_b = body_b.orientation.rotate_inverse(
            anchor_world - body_b.position)
        self.axis_local_a = body_a.orientation.rotate_inverse(axis_world)
        self.axis_local_b = body_b.orientation.rotate_inverse(axis_world)
        self.motor_velocity = None
        self.motor_max_force = 0.0

    def set_motor(self, target_velocity: float, max_force: float):
        self.motor_velocity = target_velocity
        self.motor_max_force = max_force

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["motor_velocity"] = self.motor_velocity
        state["motor_max_force"] = self.motor_max_force
        return state

    def restore_state(self, state: dict):
        super().restore_state(state)
        self.motor_velocity = state["motor_velocity"]
        self.motor_max_force = state["motor_max_force"]
        return self

    def begin_step(self, dt: float, erp: float = ERP):
        rows = self._anchor_rows(dt, erp, self.anchor_local_a,
                                 self.anchor_local_b)
        a, b = self.body_a, self.body_b
        axis_a = a.orientation.rotate(self.axis_local_a)
        axis_b = b.orientation.rotate(self.axis_local_b)
        err = axis_a.cross(axis_b)
        p = axis_a.any_orthonormal()
        q = axis_a.cross(p)
        beta = erp / dt
        zero = Vec3()
        for perp in (p, q):
            rows.append(Row(
                a, b,
                lin_a=zero, ang_a=perp,
                lin_b=zero, ang_b=-perp,
                rhs=beta * err.dot(perp),
                joint=self,
            ))
        if self.motor_velocity is not None and self.motor_max_force > 0.0:
            cap = self.motor_max_force * dt
            rows.append(Row(
                a, b,
                lin_a=zero, ang_a=axis_a,
                lin_b=zero, ang_b=-axis_a,
                rhs=-self.motor_velocity,
                lo=-cap, hi=cap,
                joint=self,
            ))
        self.rows = rows
        return rows


class FixedJoint(Joint):
    """Welds two bodies rigidly; the breakable "mortar" of the paper's
    Breakable benchmark when ``break_threshold`` is set."""

    def __init__(self, body_a, body_b, break_threshold: float = None):
        super().__init__(body_a, body_b)
        mid = (body_a.position + body_b.position) * 0.5
        self.anchor_local_a = body_a.orientation.rotate_inverse(
            mid - body_a.position)
        self.anchor_local_b = body_b.orientation.rotate_inverse(
            mid - body_b.position)
        # Relative orientation to hold: q_a = q_b * q_rel.
        self.q_rel = (body_b.orientation.conjugate()
                      * body_a.orientation).normalized()
        self.break_threshold = break_threshold

    def begin_step(self, dt: float, erp: float = ERP):
        rows = self._anchor_rows(dt, erp, self.anchor_local_a,
                                 self.anchor_local_b)
        a, b = self.body_a, self.body_b
        target = (b.orientation * self.q_rel).normalized()
        q_err = (a.orientation * target.conjugate()).normalized()
        if q_err.w < 0.0:
            q_err = type(q_err)(-q_err.w, -q_err.x, -q_err.y, -q_err.z)
        # Small-angle rotation vector taking target -> current.
        err = Vec3(2.0 * q_err.x, 2.0 * q_err.y, 2.0 * q_err.z)
        beta = erp / dt
        zero = Vec3()
        for axis in (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)):
            rows.append(Row(
                a, b,
                lin_a=zero, ang_a=axis,
                lin_b=zero, ang_b=-axis,
                rhs=-beta * err.dot(axis),
                joint=self,
            ))
        self.rows = rows
        return rows

    def end_step(self, dt: float):
        if self.break_threshold is None or self.broken:
            return
        if self.reaction_force(dt) > self.break_threshold:
            self.broken = True
            self.enabled = False

    def reaction_force(self, dt: float) -> float:
        # Breakage judged on the translational (shear/tension) rows only,
        # so torque units don't mix into the force threshold.
        if dt <= 0.0 or not self.impulses:
            return 0.0
        total = sum(i * i for i in self.impulses[:3])
        return math.sqrt(total) / dt
