"""Collision shapes and axis-aligned bounding boxes."""

from .aabb import AABB
from .shapes import (Box, Heightfield, Plane, Shape, Sphere,
                     shape_from_dict)

__all__ = ["AABB", "Shape", "Sphere", "Box", "Plane",
           "Heightfield", "shape_from_dict"]
