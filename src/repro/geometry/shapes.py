"""Primitive collision shapes.

Each shape lives in its body's local frame and knows how to produce a
world-space AABB given a transform. ``kind`` is the narrowphase dispatch
tag (kept as a string so new shapes slot in without an enum migration).
"""

from __future__ import annotations

from ..math3d import Transform, Vec3
from .aabb import AABB


class Shape:
    kind = "shape"

    def aabb(self, transform: Transform) -> AABB:
        raise NotImplementedError

    def bounding_radius(self) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-native construction record (see ``shape_from_dict``)."""
        raise NotImplementedError


class Sphere(Shape):
    kind = "sphere"
    __slots__ = ("radius",)

    def __init__(self, radius: float):
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        self.radius = float(radius)

    def __repr__(self):
        return f"Sphere({self.radius})"

    def aabb(self, transform: Transform) -> AABB:
        r = Vec3(self.radius, self.radius, self.radius)
        return AABB.from_center(transform.position, r)

    def bounding_radius(self) -> float:
        return self.radius

    def to_dict(self) -> dict:
        return {"kind": self.kind, "radius": self.radius}


class Box(Shape):
    kind = "box"
    __slots__ = ("half_extents",)

    def __init__(self, half_extents: Vec3):
        if min(half_extents.x, half_extents.y, half_extents.z) <= 0:
            raise ValueError("box half extents must be positive")
        self.half_extents = half_extents

    @staticmethod
    def from_dimensions(dx: float, dy: float, dz: float) -> "Box":
        """Full edge lengths, like ODE's dBoxCreate."""
        return Box(Vec3(0.5 * dx, 0.5 * dy, 0.5 * dz))

    def __repr__(self):
        h = self.half_extents
        return f"Box(half={h.x}x{h.y}x{h.z})"

    def corners(self):
        h = self.half_extents
        return [
            Vec3(sx * h.x, sy * h.y, sz * h.z)
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
            for sz in (-1.0, 1.0)
        ]

    def aabb(self, transform: Transform) -> AABB:
        # Rotate the three half-axes and sum absolute components.
        rot = transform.orientation.to_mat3()
        h = self.half_extents
        ex = (abs(rot[0][0]) * h.x + abs(rot[0][1]) * h.y
              + abs(rot[0][2]) * h.z)
        ey = (abs(rot[1][0]) * h.x + abs(rot[1][1]) * h.y
              + abs(rot[1][2]) * h.z)
        ez = (abs(rot[2][0]) * h.x + abs(rot[2][1]) * h.y
              + abs(rot[2][2]) * h.z)
        return AABB.from_center(transform.position, Vec3(ex, ey, ez))

    def bounding_radius(self) -> float:
        return self.half_extents.length()

    def to_dict(self) -> dict:
        h = self.half_extents
        return {"kind": self.kind, "half_extents": [h.x, h.y, h.z]}


class Plane(Shape):
    """Infinite static half-space: points with normal.p <= offset are
    inside the solid."""

    kind = "plane"
    __slots__ = ("normal", "offset")

    def __init__(self, normal: Vec3, offset: float = 0.0):
        self.normal = normal.normalized()
        self.offset = float(offset)

    def __repr__(self):
        return f"Plane(n={self.normal!r}, d={self.offset})"

    def signed_distance(self, p: Vec3) -> float:
        return self.normal.dot(p) - self.offset

    def aabb(self, transform: Transform) -> AABB:
        # Planes are infinite; the broadphase treats them as everything.
        return AABB.everything()

    def bounding_radius(self) -> float:
        return float("inf")

    def to_dict(self) -> dict:
        n = self.normal
        return {"kind": self.kind, "normal": [n.x, n.y, n.z],
                "offset": self.offset}


class Heightfield(Shape):
    """Square static heightfield centered at the origin of its geom.

    ``heights`` is a (n+1)x(n+1) row-major grid of y values covering
    [-extent/2, extent/2] in both x and z; queries outside clamp to the
    border (so the terrain effectively extends flat to infinity, which
    keeps cars from falling off the edge of the world).
    """

    kind = "heightfield"
    __slots__ = ("extent", "n", "heights", "_min_h", "_max_h")

    def __init__(self, extent: float, heights):
        self.extent = float(extent)
        self.heights = [[float(v) for v in row] for row in heights]
        self.n = len(self.heights) - 1
        if self.n < 1 or any(len(r) != self.n + 1 for r in self.heights):
            raise ValueError("heights must be a square (n+1)x(n+1) grid")
        flat = [v for row in self.heights for v in row]
        self._min_h = min(flat)
        self._max_h = max(flat)

    def __repr__(self):
        return f"Heightfield(extent={self.extent}, n={self.n})"

    def _cell(self, x: float, z: float):
        half = 0.5 * self.extent
        u = (x + half) / self.extent * self.n
        v = (z + half) / self.extent * self.n
        u = min(max(u, 0.0), float(self.n) - 1e-9)
        v = min(max(v, 0.0), float(self.n) - 1e-9)
        i, j = int(u), int(v)
        return i, j, u - i, v - j

    def height_at(self, x: float, z: float) -> float:
        """Bilinear height sample in the heightfield's local frame."""
        i, j, fu, fv = self._cell(x, z)
        h = self.heights
        h00 = h[j][i]
        h10 = h[j][i + 1]
        h01 = h[j + 1][i]
        h11 = h[j + 1][i + 1]
        return (h00 * (1 - fu) * (1 - fv) + h10 * fu * (1 - fv)
                + h01 * (1 - fu) * fv + h11 * fu * fv)

    def normal_at(self, x: float, z: float) -> Vec3:
        eps = max(1e-3, self.extent / (self.n * 8.0))
        dhdx = (self.height_at(x + eps, z) - self.height_at(x - eps, z)) \
            / (2 * eps)
        dhdz = (self.height_at(x, z + eps) - self.height_at(x, z - eps)) \
            / (2 * eps)
        return Vec3(-dhdx, 1.0, -dhdz).normalized()

    def aabb(self, transform: Transform) -> AABB:
        # Clamped-border semantics make it infinite in x/z; bound y so
        # airborne objects above the peaks generate no pairs.
        p = transform.position
        return AABB(
            Vec3(-1e9, -1e9, -1e9),
            Vec3(1e9, p.y + self._max_h, 1e9),
        )

    def bounding_radius(self) -> float:
        return float("inf")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "extent": self.extent,
                "heights": [row[:] for row in self.heights]}


def shape_from_dict(data: dict) -> Shape:
    """Rebuild a shape from its ``to_dict`` construction record.

    This is the geometry half of the snapshot wire format: a restored
    world must be able to *reconstruct* geoms that were spawned after
    the original scene build (cannon shells, debris), not just overwrite
    their dynamic state.
    """
    kind = data.get("kind")
    if kind == "sphere":
        return Sphere(data["radius"])
    if kind == "box":
        return Box(Vec3(*data["half_extents"]))
    if kind == "plane":
        return Plane(Vec3(*data["normal"]), data["offset"])
    if kind == "heightfield":
        return Heightfield(data["extent"], data["heights"])
    raise ValueError(f"unknown shape kind {kind!r}")
