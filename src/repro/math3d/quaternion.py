"""Unit quaternion for rigid-body orientation."""

from __future__ import annotations

import math

from .mat3 import Mat3
from .vec3 import Vec3


class Quaternion:
    __slots__ = ("w", "x", "y", "z")

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float = 1.0, x: float = 0.0, y: float = 0.0,
                 z: float = 0.0) -> None:
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis: Vec3, angle: float) -> "Quaternion":
        axis = axis.normalized()
        half = 0.5 * angle
        s = math.sin(half)
        return Quaternion(math.cos(half), axis.x * s, axis.y * s, axis.z * s)

    def __repr__(self) -> str:
        return (f"Quaternion({self.w:.6g}, {self.x:.6g}, {self.y:.6g},"
                f" {self.z:.6g})")

    def __eq__(self, o: object) -> bool:
        return (isinstance(o, Quaternion) and self.w == o.w
                and self.x == o.x and self.y == o.y and self.z == o.z)

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(
            self.w * self.w + self.x * self.x
            + self.y * self.y + self.z * self.z
        )

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n < 1e-12:
            return Quaternion.identity()
        inv = 1.0 / n
        return Quaternion(self.w * inv, self.x * inv, self.y * inv,
                          self.z * inv)

    def is_finite(self) -> bool:
        return all(math.isfinite(v)
                   for v in (self.w, self.x, self.y, self.z))

    def rotate(self, v: Vec3) -> Vec3:
        """Rotate a vector by this (unit) quaternion."""
        qv = Vec3(self.x, self.y, self.z)
        uv = qv.cross(v)
        uuv = qv.cross(uv)
        return v + (uv * self.w + uuv) * 2.0

    def rotate_inverse(self, v: Vec3) -> Vec3:
        return self.conjugate().rotate(v)

    def to_mat3(self) -> Mat3:
        w, x, y, z = self.w, self.x, self.y, self.z
        xx, yy, zz = x * x, y * y, z * z
        xy, xz, yz = x * y, x * z, y * z
        wx, wy, wz = w * x, w * y, w * z
        return Mat3([
            [1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)],
            [2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)],
            [2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)],
        ])

    def integrated(self, omega: Vec3, dt: float) -> "Quaternion":
        """Advance orientation by angular velocity ``omega`` over ``dt``.

        q' = q + dt/2 * (0, omega) * q, then renormalized — the standard
        first-order update used by semi-implicit Euler integrators.
        """
        dq = Quaternion(0.0, omega.x, omega.y, omega.z) * self
        half = 0.5 * dt
        return Quaternion(
            self.w + dq.w * half,
            self.x + dq.x * half,
            self.y + dq.y * half,
            self.z + dq.z * half,
        ).normalized()
