"""Ray queries against world geometry.

Used by the CCD sweep (fast movers cast along their motion) and scene
tooling. Rays are parameterized as ``origin + t * direction`` with ``t``
in world units when ``direction`` is normalized (``raycast_world``
normalizes for you).
"""

from __future__ import annotations

import math

from ..math3d import Vec3

_EPS = 1e-9


class RayHit:
    __slots__ = ("geom", "t", "point", "normal")

    def __init__(self, geom, t, point, normal):
        self.geom = geom
        self.t = t
        self.point = point
        self.normal = normal

    def __repr__(self):
        return f"RayHit({self.geom!r}, t={self.t:.4f})"


def ray_sphere(origin, direction, center, radius):
    """Smallest t >= 0 where the ray enters the sphere, or None."""
    oc = origin - center
    b = oc.dot(direction)
    c = oc.dot(oc) - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    t = -b - root
    if t < 0.0:
        t = -b + root  # origin inside the sphere
    return t if t >= 0.0 else None


def ray_aabb(origin, direction, lo, hi):
    """Slab test; smallest t >= 0 where the ray enters the box, or
    None. ``lo``/``hi`` are the box corners."""
    tmin, tmax = 0.0, float("inf")
    for axis in ("x", "y", "z"):
        o = getattr(origin, axis)
        d = getattr(direction, axis)
        a = getattr(lo, axis)
        b = getattr(hi, axis)
        if abs(d) < _EPS:
            if o < a or o > b:
                return None
            continue
        inv = 1.0 / d
        t0, t1 = (a - o) * inv, (b - o) * inv
        if t0 > t1:
            t0, t1 = t1, t0
        tmin = max(tmin, t0)
        tmax = min(tmax, t1)
        if tmin > tmax:
            return None
    return tmin


def ray_box(origin, direction, box, transform):
    """Ray vs oriented box: transform the ray into box space."""
    local_o = transform.apply_inverse(origin)
    local_d = transform.orientation.rotate_inverse(direction)
    h = box.half_extents
    return ray_aabb(local_o, local_d, Vec3(-h.x, -h.y, -h.z), h)


def ray_plane(origin, direction, plane):
    denom = plane.normal.dot(direction)
    if abs(denom) < _EPS:
        return None
    t = (plane.offset - plane.normal.dot(origin)) / denom
    return t if t >= 0.0 else None


def ray_heightfield(origin, direction, field, transform,
                    max_t, steps: int = 32):
    """March along the ray and bisect the first above->below crossing."""
    if max_t <= 0.0 or not math.isfinite(max_t):
        max_t = 100.0

    def below(t):
        p = origin + direction * t
        local_x = p.x - transform.position.x
        local_z = p.z - transform.position.z
        surface = transform.position.y + field.height_at(local_x, local_z)
        return p.y <= surface

    if below(0.0):
        return 0.0
    prev = 0.0
    for k in range(1, steps + 1):
        t = max_t * k / steps
        if below(t):
            lo, hi = prev, t
            for _ in range(16):
                mid = 0.5 * (lo + hi)
                if below(mid):
                    hi = mid
                else:
                    lo = mid
            return hi
        prev = t
    return None


def raycast_geom(geom, origin, direction, max_t=float("inf")):
    """t of the first intersection with one geom, or None."""
    shape = geom.shape
    kind = shape.kind
    tr = geom.transform
    if kind == "sphere":
        t = ray_sphere(origin, direction, tr.position, shape.radius)
    elif kind == "box":
        t = ray_box(origin, direction, shape, tr)
    elif kind == "plane":
        t = ray_plane(origin, direction, shape)
    elif kind == "capsule":
        a, b = shape.endpoints(tr)
        t = None
        for center in (a, b, (a + b) * 0.5):
            tc = ray_sphere(origin, direction, center, shape.radius)
            if tc is not None and (t is None or tc < t):
                t = tc
    elif kind == "heightfield":
        t = ray_heightfield(origin, direction, shape, tr, max_t)
    else:
        t = None
    if t is None or t > max_t:
        return None
    return t


def raycast_world(world, origin: Vec3, direction: Vec3,
                  max_dist: float = float("inf"),
                  exclude_body=None) -> RayHit:
    """First hit of a ray against every enabled geom, or None."""
    d = direction.normalized()
    best_t, best_geom = None, None
    for geom in world.geoms:
        if not geom.enabled:
            continue
        if exclude_body is not None and geom.body is exclude_body:
            continue
        limit = best_t if best_t is not None else max_dist
        t = raycast_geom(geom, origin, d, limit)
        if t is not None and (best_t is None or t < best_t):
            best_t, best_geom = t, geom
    if best_geom is None:
        return None
    point = origin + d * best_t
    normal = _surface_normal(best_geom, point, d)
    return RayHit(best_geom, best_t, point, normal)


def _surface_normal(geom, point, direction):
    kind = geom.shape.kind
    if kind == "sphere":
        n = point - geom.transform.position
        length = n.length()
        return n / length if length > _EPS else Vec3(0, 1, 0)
    if kind == "plane":
        return geom.shape.normal
    if kind == "heightfield":
        tr = geom.transform
        return geom.shape.normal_at(point.x - tr.position.x,
                                    point.z - tr.position.z)
    # Boxes/capsules: the entry face normal opposes the ray closely
    # enough for CCD's purposes.
    return direction * -1.0
