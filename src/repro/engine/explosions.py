"""Explosions (blast spheres) and prefractured debris.

The paper's Explosions benchmark drives both: a blast applies a radial
impulse field over a few steps, and any prefractured object caught in a
blast swaps its whole body for pre-authored debris pieces inheriting the
parent's motion (the game-industry prefracture trick the paper adopts
instead of runtime fracture computation).
"""

from __future__ import annotations

from ..math3d import Vec3

#: Sub-steps a blast lasts; its impulse is split evenly across them.
BLAST_STEPS = 3
#: A prefractured object shatters when a blast sphere comes this close.
TRIGGER_MARGIN = 0.5


class Explosion:
    """A blast sphere: radial impulses with linear falloff, alive for
    :data:`BLAST_STEPS` sub-steps."""

    def __init__(self, center: Vec3, radius: float, impulse: float):
        self.center = center
        self.radius = radius
        self.impulse = impulse
        self.age = 0

    @property
    def active(self) -> bool:
        return self.age < BLAST_STEPS

    def __repr__(self):
        state = "active" if self.active else "spent"
        return (f"Explosion(at={self.center!r}, r={self.radius},"
                f" J={self.impulse}, {state})")

    # -- checkpointing --------------------------------------------------
    def snapshot_state(self) -> dict:
        c = self.center
        return {
            "center": [c.x, c.y, c.z],
            "radius": self.radius,
            "impulse": self.impulse,
            "age": self.age,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Explosion":
        boom = cls(Vec3(*state["center"]), state["radius"],
                   state["impulse"])
        boom.age = state["age"]
        return boom

    def apply(self, world) -> int:
        """Push every dynamic body in range; returns bodies affected."""
        if not self.active:
            return 0
        affected = 0
        # Impulse is split across the blast's duration.
        step_impulse = self.impulse / BLAST_STEPS
        for body in world.bodies:
            if body.is_static or not body.enabled:
                continue
            delta = body.position - self.center
            dist = delta.length()
            if dist >= self.radius:
                continue
            direction = (delta / dist if dist > 1e-6
                         else Vec3(0, 1, 0))
            falloff = 1.0 - dist / self.radius
            body.wake()
            body.apply_impulse(direction * (step_impulse * falloff))
            affected += 1
        for pf in world.prefractured:
            if pf.broken:
                continue
            delta = pf.body.position - self.center
            if delta.length() < self.radius + TRIGGER_MARGIN:
                pf.fracture(delta.normalized()
                            * (self.impulse / max(pf.total_mass(), 1e-6)))
        self.age += 1
        return affected


class PrefracturedBody:
    """A whole body that shatters into pre-authored debris when blasted.

    The debris bodies exist (disabled) from construction so the world's
    body indexing — and therefore determinism — doesn't depend on when
    the fracture happens.
    """

    def __init__(self, world, body, geom, debris):
        self.world = world
        self.body = body
        self.geom = geom
        self.debris = list(debris)  # [(body, geom), ...]
        self.broken = False
        for debris_body, _ in self.debris:
            debris_body.enabled = False

    def __repr__(self):
        state = "broken" if self.broken else "whole"
        return f"PrefracturedBody(#{self.body.uid}, {state})"

    # -- checkpointing --------------------------------------------------
    def snapshot_state(self) -> dict:
        # Debris poses/velocities live on the debris bodies themselves;
        # only the trigger flag is prefracture-specific.
        return {"body_uid": self.body.uid, "broken": self.broken}

    def restore_state(self, state: dict):
        self.broken = state["broken"]
        return self

    def total_mass(self) -> float:
        return self.body.mass

    def fracture(self, extra_velocity: Vec3 = None):
        if self.broken:
            return
        self.broken = True
        self.body.enabled = False
        base_v = self.body.linear_velocity
        base_w = self.body.angular_velocity
        for debris_body, _ in self.debris:
            debris_body.enabled = True
            debris_body.wake()
            # Place relative to the parent's current pose.
            local = debris_body.position  # authored as a local offset
            debris_body.position = self.body.transform.apply(local)
            debris_body.orientation = self.body.orientation
            r = debris_body.position - self.body.position
            debris_body.linear_velocity = base_v + base_w.cross(r)
            if extra_velocity is not None:
                debris_body.linear_velocity = (
                    debris_body.linear_velocity + extra_velocity)
