"""3D math primitives: vectors, matrices, quaternions, transforms,
inertia tensors."""

from .inertia import (
    box_inertia,
    rotate_inertia,
    shape_mass_inertia,
    sphere_inertia,
)
from .mat3 import Mat3
from .quaternion import Quaternion
from .transform import Transform
from .vec3 import Vec3

__all__ = [
    "Vec3",
    "Mat3",
    "Quaternion",
    "Transform",
    "sphere_inertia",
    "box_inertia",
    "shape_mass_inertia",
    "rotate_inertia",
]
