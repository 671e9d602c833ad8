"""Ray tests the CCD sweep clamps with.

``collision.ccd.sweep_clamp``, which both backends call, casts a fast
mover's motion against planes, heightfields and inflated AABBs. Rays
are parameterized as ``origin + t * direction`` with ``t`` in world
units when ``direction`` is normalized.
"""

from __future__ import annotations

import math

_EPS = 1e-9


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
