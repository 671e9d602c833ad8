"""Rigid body state: mass properties, pose, velocities, accumulators."""

from __future__ import annotations

from ..math3d import (
    Mat3,
    Quaternion,
    Transform,
    Vec3,
    rotate_inertia,
    shape_mass_inertia,
)


class Body:
    _next_uid = 0

    def __init__(self, position: Vec3 = None, orientation: Quaternion = None,
                 mass: float = 1.0):
        self.position = position if position is not None else Vec3()
        self.orientation = (orientation if orientation is not None
                            else Quaternion.identity())
        self.linear_velocity = Vec3()
        self.angular_velocity = Vec3()
        self.force = Vec3()
        self.torque = Vec3()
        self.enabled = True
        self.sleeping = False
        self.sleep_timer = 0.0
        self.gravity_scale = 1.0
        # World-assigned dense index; uid is a global creation counter so
        # bodies order deterministically even before attachment.
        # pax: ignore[PAX201]: structural slot in world.bodies; restore
        # matches bodies positionally, so index never changes under it.
        self.index = -1
        # pax: ignore[PAX201]: snapshotted, and *verified* (never
        # overwritten) by WorldSnapshot.restore's uid match check.
        self.uid = Body._next_uid
        Body._next_uid += 1

        self.set_mass(mass, Mat3.diagonal(0.4 * mass, 0.4 * mass,
                                          0.4 * mass))
        # pax: ignore[PAX201]: derived cache (R I^-1 R^T), invalidated
        # on every pose write and lazily rebuilt; never authoritative.
        self._inv_inertia_world = None

    def __repr__(self):
        return f"Body(#{self.uid} at {self.position!r})"

    # -- mass properties ------------------------------------------------
    def set_mass(self, mass: float, inertia_body: Mat3):
        self.mass = float(mass)
        self.inertia_body = inertia_body
        if mass <= 0.0:
            self.inv_mass = 0.0
            self.inv_inertia_body = Mat3.zero()
        else:
            self.inv_mass = 1.0 / mass
            self.inv_inertia_body = inertia_body.inverse()
        self._inv_inertia_world = None

    def set_mass_from_shape(self, shape, density: float = 1000.0):
        mass, inertia = shape_mass_inertia(shape, density)
        self.set_mass(mass, inertia)
        return self

    @property
    def is_static(self) -> bool:
        return self.inv_mass == 0.0

    # -- derived state --------------------------------------------------
    @property
    def transform(self) -> Transform:
        return Transform(self.position, self.orientation)

    def refresh_world_inertia(self):
        """Recompute R * I^-1 * R^T; call once per step before solving."""
        rot = self.orientation.to_mat3()
        self._inv_inertia_world = rotate_inertia(self.inv_inertia_body, rot)
        return self._inv_inertia_world

    @property
    def inv_inertia_world(self) -> Mat3:
        if self._inv_inertia_world is None:
            self.refresh_world_inertia()
        return self._inv_inertia_world

    def kinetic_energy(self) -> float:
        lin = 0.5 * self.mass * self.linear_velocity.length_squared()
        w = self.angular_velocity
        rot = self.orientation.to_mat3()
        i_world = rotate_inertia(self.inertia_body, rot)
        ang = 0.5 * w.dot(i_world * w)
        return lin + ang

    # -- accumulators ---------------------------------------------------
    def apply_force(self, force: Vec3, at_point: Vec3 = None):
        self.force = self.force + force
        if at_point is not None:
            self.torque = self.torque + (at_point - self.position).cross(
                force)

    def apply_impulse(self, impulse: Vec3, at_point: Vec3 = None):
        if self.inv_mass == 0.0:
            return
        self.linear_velocity = self.linear_velocity + impulse * self.inv_mass
        if at_point is not None:
            r = at_point - self.position
            self.angular_velocity = self.angular_velocity + (
                self.inv_inertia_world * r.cross(impulse))

    def clear_accumulators(self):
        self.force = Vec3()
        self.torque = Vec3()

    def wake(self):
        self.sleeping = False
        self.sleep_timer = 0.0

    def is_finite(self) -> bool:
        return (self.position.is_finite()
                and self.orientation.is_finite()
                and self.linear_velocity.is_finite()
                and self.angular_velocity.is_finite())

    # -- checkpointing --------------------------------------------------
    def snapshot_state(self) -> dict:
        """Full dynamic state as JSON-native data (see repro.resilience).

        Mass properties are included so a restore heals state corrupted
        mid-run (e.g. a fault-injected inertia tensor)."""
        p, q = self.position, self.orientation
        v, w = self.linear_velocity, self.angular_velocity
        f, t = self.force, self.torque
        return {
            "uid": self.uid,
            "position": [p.x, p.y, p.z],
            "orientation": [q.w, q.x, q.y, q.z],
            "linear_velocity": [v.x, v.y, v.z],
            "angular_velocity": [w.x, w.y, w.z],
            "force": [f.x, f.y, f.z],
            "torque": [t.x, t.y, t.z],
            "enabled": self.enabled,
            "sleeping": self.sleeping,
            "sleep_timer": self.sleep_timer,
            "gravity_scale": self.gravity_scale,
            "mass": self.mass,
            "inertia_body": [row[:] for row in self.inertia_body.m],
        }

    def restore_state(self, state: dict):
        self.position = Vec3(*state["position"])
        self.orientation = Quaternion(*state["orientation"])
        self.linear_velocity = Vec3(*state["linear_velocity"])
        self.angular_velocity = Vec3(*state["angular_velocity"])
        self.force = Vec3(*state["force"])
        self.torque = Vec3(*state["torque"])
        self.enabled = state["enabled"]
        self.sleeping = state["sleeping"]
        self.sleep_timer = state["sleep_timer"]
        self.gravity_scale = state["gravity_scale"]
        self.set_mass(state["mass"], Mat3(state["inertia_body"]))
        return self
