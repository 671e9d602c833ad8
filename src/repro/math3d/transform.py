"""Rigid transform: rotation (quaternion) + translation."""

from __future__ import annotations

from typing import Optional

from .quaternion import Quaternion
from .vec3 import Vec3


class Transform:
    __slots__ = ("position", "orientation")

    position: Vec3
    orientation: Quaternion

    def __init__(self, position: Optional[Vec3] = None,
                 orientation: Optional[Quaternion] = None) -> None:
        self.position = position if position is not None else Vec3()
        self.orientation = (orientation if orientation is not None
                            else Quaternion.identity())

    def __repr__(self) -> str:
        return f"Transform({self.position!r}, {self.orientation!r})"

    def apply(self, local_point: Vec3) -> Vec3:
        """Local -> world."""
        return self.orientation.rotate(local_point) + self.position

    def apply_inverse(self, world_point: Vec3) -> Vec3:
        """World -> local."""
        return self.orientation.rotate_inverse(world_point - self.position)

    def apply_vector(self, local_vec: Vec3) -> Vec3:
        """Rotate only (directions, not points)."""
        return self.orientation.rotate(local_vec)
