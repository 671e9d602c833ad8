"""Body-frame inertia tensors for the primitive shapes.

All return (mass, Mat3 inertia-about-center) given a density, matching
ODE's dMass* helpers.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

from .mat3 import Mat3
from .vec3 import Vec3

MassInertia = Tuple[float, Mat3]


def sphere_inertia(radius: float, density: float) -> MassInertia:
    mass = density * (4.0 / 3.0) * math.pi * radius ** 3
    i = 0.4 * mass * radius * radius
    return mass, Mat3.diagonal(i, i, i)


def box_inertia(half_extents: Vec3, density: float) -> MassInertia:
    dx, dy, dz = (2 * half_extents.x, 2 * half_extents.y,
                  2 * half_extents.z)
    mass = density * dx * dy * dz
    k = mass / 12.0
    return mass, Mat3.diagonal(
        k * (dy * dy + dz * dz),
        k * (dx * dx + dz * dz),
        k * (dx * dx + dy * dy),
    )


def shape_mass_inertia(shape: Any, density: float) -> MassInertia:
    """Dispatch on shape kind (duck-typed to avoid circular imports)."""
    kind = getattr(shape, "kind", None)
    if kind == "sphere":
        return sphere_inertia(shape.radius, density)
    if kind == "box":
        return box_inertia(shape.half_extents, density)
    raise TypeError(f"no inertia model for shape kind {kind!r}")


def rotate_inertia(inertia: Mat3, rotation: Mat3) -> Mat3:
    """World-frame inertia: R * I * R^T."""
    return rotation * inertia * rotation.transpose()
