"""3-component vector used throughout the engine.

Plain Python floats (not numpy) keep single-object math fast and every
operation bit-deterministic across runs, which the determinism checker
(`repro.engine.recorder.assert_deterministic`) relies on.
"""

from __future__ import annotations

import math
from typing import Iterator


class Vec3:
    __slots__ = ("x", "y", "z")

    x: float
    y: float
    z: float

    def __init__(self, x: float = 0.0, y: float = 0.0,
                 z: float = 0.0) -> None:
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    # -- construction helpers -------------------------------------------
    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)

    def copy(self) -> "Vec3":
        return Vec3(self.x, self.y, self.z)

    # -- arithmetic -----------------------------------------------------
    def __add__(self, o: "Vec3") -> "Vec3":
        return Vec3(self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o: "Vec3") -> "Vec3":
        return Vec3(self.x - o.x, self.y - o.y, self.z - o.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        inv = 1.0 / s
        return Vec3(self.x * inv, self.y * inv, self.z * inv)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def __eq__(self, o: object) -> bool:
        return (
            isinstance(o, Vec3)
            and self.x == o.x and self.y == o.y and self.z == o.z
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"Vec3({self.x:.6g}, {self.y:.6g}, {self.z:.6g})"

    # -- products -------------------------------------------------------
    def dot(self, o: "Vec3") -> float:
        return self.x * o.x + self.y * o.y + self.z * o.z

    def cross(self, o: "Vec3") -> "Vec3":
        return Vec3(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )

    # -- norms ----------------------------------------------------------
    def length_squared(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def length(self) -> float:
        return math.sqrt(self.length_squared())

    def distance_to(self, o: "Vec3") -> float:
        return (self - o).length()

    def normalized(self) -> "Vec3":
        n = self.length()
        if n < 1e-12:
            return Vec3(0.0, 0.0, 0.0)
        return self / n

    def is_finite(self) -> bool:
        return (
            math.isfinite(self.x)
            and math.isfinite(self.y)
            and math.isfinite(self.z)
        )

    def any_orthonormal(self) -> "Vec3":
        """A unit vector perpendicular to ``self`` (assumed non-zero)."""
        if abs(self.x) < 0.57735:
            base = Vec3(1.0, 0.0, 0.0)
        else:
            base = Vec3(0.0, 1.0, 0.0)
        return self.cross(base).normalized()
