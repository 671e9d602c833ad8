"""Axis-aligned bounding box."""

from __future__ import annotations

from ..math3d import Vec3

#: Half-extent of the box that bounds an unbounded shape (a plane).
EVERYTHING = 1e9


class AABB:
    __slots__ = ("min", "max")

    def __init__(self, lo: Vec3, hi: Vec3):
        self.min = lo
        self.max = hi

    @staticmethod
    def from_center(center: Vec3, half: Vec3) -> "AABB":
        return AABB(center - half, center + half)

    @staticmethod
    def everything() -> "AABB":
        b = EVERYTHING
        return AABB(Vec3(-b, -b, -b), Vec3(b, b, b))

    def __repr__(self):
        return f"AABB({self.min!r}, {self.max!r})"

    def overlaps(self, o: "AABB") -> bool:
        return (
            self.min.x <= o.max.x and o.min.x <= self.max.x
            and self.min.y <= o.max.y and o.min.y <= self.max.y
            and self.min.z <= o.max.z and o.min.z <= self.max.z
        )

    def extents(self) -> Vec3:
        return self.max - self.min
