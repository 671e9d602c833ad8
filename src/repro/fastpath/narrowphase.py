"""Vectorized narrowphase pair tests (bit-identical to the scalar ones).

``collide_pairs`` replaces the world's per-pair phase-2 loop for
``backend="numpy"``: candidate pairs are grouped by shape-kind, the hot
kinds (sphere/sphere, sphere/plane, sphere/box, box/plane) run as batch
NumPy kernels restating the scalar formulas component-by-component, and
the remaining kinds fall back to the scalar routines — box/box through
a per-step memo of world transforms, axes, and corners (pure functions
of pose, so memoization cannot change a single bit).

Contacts come out in the scalar loop's exact order: pair order is
preserved, and within a pair the kernel emits points in the same order
the scalar routine appends them.
"""

from __future__ import annotations

import numpy as np

from ..collision.narrowphase import (
    CONTACT_MARGIN,
    Contact,
    collide,
)
from ..engine.scalar import narrowphase as run_narrowphase
from ..math3d import Vec3

_BATCH_KINDS = {
    ("sphere", "sphere"),
    ("sphere", "plane"),
    ("sphere", "box"),
    ("box", "plane"),
    ("box", "box"),
}

# Smallest group worth the array kernels' fixed dispatch cost; smaller
# groups run the scalar routines the kernels restate.  Box-box always
# batches — its vectorized SAT prefilter beats the scalar test at any
# size.
_BATCH_MIN = 4


def _rotate(w, x, y, z, vx, vy, vz):
    """Quaternion.rotate, componentwise: v + (qv×v * w + qv×(qv×v)) * 2."""
    uvx = y * vz - z * vy
    uvy = z * vx - x * vz
    uvz = x * vy - y * vx
    uuvx = y * uvz - z * uvy
    uuvy = z * uvx - x * uvz
    uuvz = x * uvy - y * uvx
    return (vx + (uvx * w + uuvx) * 2.0,
            vy + (uvy * w + uuvy) * 2.0,
            vz + (uvz * w + uuvz) * 2.0)


class _Cache:
    """Per-step memo of pose-derived geom data."""

    __slots__ = ("tf", "axes", "corners")

    def __init__(self):
        self.tf = {}
        self.axes = {}
        self.corners = {}

    def transform(self, g):
        t = self.tf.get(g.uid)
        if t is None:
            t = self.tf[g.uid] = g.transform
        return t

    def box_axes(self, g):
        ax = self.axes.get(g.uid)
        if ax is None:
            rot = self.transform(g).orientation.to_mat3()
            ax = self.axes[g.uid] = [rot.column(0), rot.column(1),
                                     rot.column(2)]
        return ax

    def world_corners(self, g):
        cs = self.corners.get(g.uid)
        if cs is None:
            tf = self.transform(g)
            cs = self.corners[g.uid] = [tf.apply(c)
                                        for c in g.shape.corners()]
        return cs


def _corner_in_box(p, geom, tf) -> bool:
    """``_point_in_box`` with the memoized transform, unboxed."""
    pos = tf.position
    q = tf.orientation
    lx, ly, lz = _rotate(q.w, -q.x, -q.y, -q.z,
                         p.x - pos.x, p.y - pos.y, p.z - pos.z)
    h = geom.shape.half_extents
    m = CONTACT_MARGIN
    return (abs(lx) <= h.x + m and abs(ly) <= h.y + m
            and abs(lz) <= h.z + m)


def _box_extent_along(cache, geom, axis: Vec3) -> float:
    h = geom.shape.half_extents
    ax = cache.box_axes(geom)
    return (abs(axis.dot(ax[0])) * h.x + abs(axis.dot(ax[1])) * h.y
            + abs(axis.dot(ax[2])) * h.z)


def _box_box_cached(cache, ga, gb):
    """`narrowphase._box_box` with memoized axes/corners/transforms."""
    tfa = cache.transform(ga)
    tfb = cache.transform(gb)
    ca = tfa.position
    cb = tfb.position
    delta = ca - cb
    axes_a = cache.box_axes(ga)
    axes_b = cache.box_axes(gb)

    candidates = list(axes_a) + list(axes_b)
    for u in axes_a:
        for v in axes_b:
            cross = u.cross(v)
            if cross.length_squared() > 1e-12:
                candidates.append(cross.normalized())

    best_overlap = float("inf")
    best_axis = None
    for axis in candidates:
        span = (_box_extent_along(cache, ga, axis)
                + _box_extent_along(cache, gb, axis))
        dist = axis.dot(delta)
        overlap = span - abs(dist)
        if overlap < -CONTACT_MARGIN:
            return []
        if overlap < best_overlap:
            best_overlap = overlap
            best_axis = axis if dist >= 0 else -axis

    n = best_axis
    contacts = []
    b_face = n.dot(cb) + _box_extent_along(cache, gb, n)
    for i, p in enumerate(cache.world_corners(ga)):
        if _corner_in_box(p, gb, tfb):
            depth = b_face - n.dot(p)
            contacts.append(Contact(ga, gb, p, n, max(0.0, depth),
                                    feature=i))
    a_face = n.dot(ca) - _box_extent_along(cache, ga, n)
    for i, p in enumerate(cache.world_corners(gb)):
        if _corner_in_box(p, ga, tfa):
            depth = n.dot(p) - a_face
            contacts.append(Contact(ga, gb, p, n, max(0.0, depth),
                                    feature=8 + i))
    if not contacts:
        support = ca
        for axis, h in zip(axes_a, (ga.shape.half_extents.x,
                                    ga.shape.half_extents.y,
                                    ga.shape.half_extents.z)):
            s = axis.dot(n)
            support = support - axis * (h if s > 0 else -h)
        contacts.append(Contact(ga, gb, support, n,
                                max(0.0, best_overlap), feature=16))
    return contacts


def _rot9(q):
    """Quaternion.to_mat3 entries (row-major 9-tuple of arrays)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return (1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
            2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
            2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy))


def _batch_box_box(cache, items):
    """Vectorized SAT separation test; scalar contacts for survivors.

    All 15 candidate-axis tests run as arrays restating the scalar
    expressions, so the set of pairs judged separated is exactly the
    set ``_box_box_cached`` would reject.  Pairs that survive (usually
    a small minority) re-run the scalar routine for identical contacts.
    """
    m = len(items)
    qa = np.empty((m, 4))
    qb = np.empty((m, 4))
    pa = np.empty((m, 3))
    pb = np.empty((m, 3))
    ha = np.empty((m, 3))
    hb = np.empty((m, 3))
    for i, (ga, gb) in enumerate(items):
        ta = cache.transform(ga)
        tb = cache.transform(gb)
        oa = ta.orientation
        ob = tb.orientation
        qa[i] = (oa.w, oa.x, oa.y, oa.z)
        qb[i] = (ob.w, ob.x, ob.y, ob.z)
        va = ta.position
        vb = tb.position
        pa[i] = (va.x, va.y, va.z)
        pb[i] = (vb.x, vb.y, vb.z)
        sa = ga.shape.half_extents
        sb = gb.shape.half_extents
        ha[i] = (sa.x, sa.y, sa.z)
        hb[i] = (sb.x, sb.y, sb.z)

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        ra = _rot9(qa)
        rb = _rot9(qb)
        # Column k of each rotation = box axis k.
        acols = [(ra[0 + k], ra[3 + k], ra[6 + k]) for k in range(3)]
        bcols = [(rb[0 + k], rb[3 + k], rb[6 + k]) for k in range(3)]
        dx = pa[:, 0] - pb[:, 0]
        dy = pa[:, 1] - pb[:, 1]
        dz = pa[:, 2] - pb[:, 2]
        hax, hay, haz = ha[:, 0], ha[:, 1], ha[:, 2]
        hbx, hby, hbz = hb[:, 0], hb[:, 1], hb[:, 2]

        def extent(ax, ay, az, cols, hx, hy, hz):
            return (np.abs((ax * cols[0][0] + ay * cols[0][1])
                           + az * cols[0][2]) * hx
                    + np.abs((ax * cols[1][0] + ay * cols[1][1])
                             + az * cols[1][2]) * hy
                    + np.abs((ax * cols[2][0] + ay * cols[2][1])
                             + az * cols[2][2]) * hz)

        def overlap_of(ax, ay, az):
            span = (extent(ax, ay, az, acols, hax, hay, haz)
                    + extent(ax, ay, az, bcols, hbx, hby, hbz))
            dist = (ax * dx + ay * dy) + az * dz
            return span - np.abs(dist)

        separated = np.zeros(m, dtype=bool)
        for ax, ay, az in acols + bcols:
            separated |= overlap_of(ax, ay, az) < -CONTACT_MARGIN
        for ux, uy, uz in acols:
            for vx, vy, vz in bcols:
                cx = uy * vz - uz * vy
                cy = uz * vx - ux * vz
                cz = ux * vy - uy * vx
                ls = (cx * cx + cy * cy) + cz * cz
                valid = ls > 1e-12
                inv = 1.0 / np.sqrt(ls)
                ov = overlap_of(cx * inv, cy * inv, cz * inv)
                separated |= valid & (ov < -CONTACT_MARGIN)

    return [[] if separated[i] else _box_box_cached(cache, ga, gb)
            for i, (ga, gb) in enumerate(items)]


# ---------------------------------------------------------------------------
# batch kernels — each takes the group's (sphere_geom, other_geom) pairs
# in *canonical* (dispatch) order and returns one contact list per pair.


def _batch_sphere_sphere(cache, items):
    m = len(items)
    pa = np.empty((m, 3))
    pb = np.empty((m, 3))
    ra = np.empty(m)
    rb = np.empty(m)
    for i, (ga, gb) in enumerate(items):
        a = cache.transform(ga).position
        b = cache.transform(gb).position
        pa[i] = (a.x, a.y, a.z)
        pb[i] = (b.x, b.y, b.z)
        ra[i] = ga.shape.radius
        rb[i] = gb.shape.radius
    dx = pa[:, 0] - pb[:, 0]
    dy = pa[:, 1] - pb[:, 1]
    dz = pa[:, 2] - pb[:, 2]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        depth = ra + rb - dist
        emit = ~(depth < -CONTACT_MARGIN)
        near = dist > 1e-9
        inv = 1.0 / np.where(near, dist, 1.0)
        nx = np.where(near, dx * inv, 0.0)
        ny = np.where(near, dy * inv, 1.0)
        nz = np.where(near, dz * inv, 0.0)
        s = rb - 0.5 * depth
        px = pb[:, 0] + nx * s
        py = pb[:, 1] + ny * s
        pz = pb[:, 2] + nz * s
        dep = np.maximum(0.0, depth)
    out = []
    for i, (ga, gb) in enumerate(items):
        if emit[i]:
            out.append([Contact(
                ga, gb, Vec3(px[i], py[i], pz[i]),
                Vec3(nx[i], ny[i], nz[i]), float(dep[i]))])
        else:
            out.append([])
    return out


def _batch_sphere_plane(cache, items):
    m = len(items)
    c = np.empty((m, 3))
    r = np.empty(m)
    n = np.empty((m, 3))
    off = np.empty(m)
    for i, (ga, gb) in enumerate(items):
        p = cache.transform(ga).position
        c[i] = (p.x, p.y, p.z)
        r[i] = ga.shape.radius
        pn = gb.shape.normal
        n[i] = (pn.x, pn.y, pn.z)
        off[i] = gb.shape.offset
    with np.errstate(invalid="ignore", over="ignore"):
        d = (n[:, 0] * c[:, 0] + n[:, 1] * c[:, 1]
             + n[:, 2] * c[:, 2]) - off
        depth = r - d
        emit = ~(depth < -CONTACT_MARGIN)
        px = c[:, 0] - n[:, 0] * d
        py = c[:, 1] - n[:, 1] * d
        pz = c[:, 2] - n[:, 2] * d
        dep = np.maximum(0.0, depth)
    out = []
    for i, (ga, gb) in enumerate(items):
        if emit[i]:
            out.append([Contact(ga, gb, Vec3(px[i], py[i], pz[i]),
                                gb.shape.normal, float(dep[i]))])
        else:
            out.append([])
    return out


def _batch_sphere_box(cache, items):
    m = len(items)
    cw = np.empty((m, 3))   # sphere center, world
    bp = np.empty((m, 3))   # box position
    q = np.empty((m, 4))    # box orientation (w, x, y, z)
    h = np.empty((m, 3))
    r = np.empty(m)
    for i, (ga, gb) in enumerate(items):
        p = cache.transform(ga).position
        cw[i] = (p.x, p.y, p.z)
        tf = cache.transform(gb)
        bp[i] = (tf.position.x, tf.position.y, tf.position.z)
        qq = tf.orientation
        q[i] = (qq.w, qq.x, qq.y, qq.z)
        hh = gb.shape.half_extents
        h[i] = (hh.x, hh.y, hh.z)
        r[i] = ga.shape.radius
    w, qx, qy, qz = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # apply_inverse: rotate (center - box_pos) by the conjugate.
        dx = cw[:, 0] - bp[:, 0]
        dy = cw[:, 1] - bp[:, 1]
        dz = cw[:, 2] - bp[:, 2]
        lx, ly, lz = _rotate(w, -qx, -qy, -qz, dx, dy, dz)
        hx, hy, hz = h[:, 0], h[:, 1], h[:, 2]
        clx = np.minimum(np.maximum(lx, -hx), hx)
        cly = np.minimum(np.maximum(ly, -hy), hy)
        clz = np.minimum(np.maximum(lz, -hz), hz)
        ddx, ddy, ddz = lx - clx, ly - cly, lz - clz
        dist_sq = ddx * ddx + ddy * ddy + ddz * ddz
        outside = dist_sq > 1e-18
        # outside: exit through the clamped point
        dist = np.sqrt(np.where(outside, dist_sq, 1.0))
        depth_out = r - dist
        inv = 1.0 / dist
        nox, noy, noz = ddx * inv, ddy * inv, ddz * inv
        # inside: exit through the nearest face
        gx = hx - np.abs(lx)
        gy = hy - np.abs(ly)
        gz = hz - np.abs(lz)
        gaps = np.stack((gx, gy, gz))
        axis = np.argmin(gaps, axis=0)
        gap = gaps[axis, np.arange(m)]
        depth_in = r + gap
        nix = np.where(axis == 0, np.where(lx >= 0, 1.0, -1.0), 0.0)
        niy = np.where(axis == 1, np.where(ly >= 0, 1.0, -1.0), 0.0)
        niz = np.where(axis == 2, np.where(lz >= 0, 1.0, -1.0), 0.0)
        depth = np.where(outside, depth_out, depth_in)
        emit = np.where(outside, ~(depth_out < -CONTACT_MARGIN), True)
        nlx = np.where(outside, nox, nix)
        nly = np.where(outside, noy, niy)
        nlz = np.where(outside, noz, niz)
        plx = np.where(outside, clx, lx)
        ply = np.where(outside, cly, ly)
        plz = np.where(outside, clz, lz)
        nwx, nwy, nwz = _rotate(w, qx, qy, qz, nlx, nly, nlz)
        rx, ry, rz = _rotate(w, qx, qy, qz, plx, ply, plz)
        px = rx + bp[:, 0]
        py = ry + bp[:, 1]
        pz = rz + bp[:, 2]
        dep = np.maximum(0.0, depth)
    out = []
    for i, (ga, gb) in enumerate(items):
        if emit[i]:
            out.append([Contact(
                ga, gb, Vec3(px[i], py[i], pz[i]),
                Vec3(nwx[i], nwy[i], nwz[i]), float(dep[i]))])
        else:
            out.append([])
    return out


def _batch_box_plane(cache, items):
    m = len(items)
    bp = np.empty((m, 3))
    q = np.empty((m, 4))
    h = np.empty((m, 3))
    n = np.empty((m, 3))
    off = np.empty(m)
    for i, (ga, gb) in enumerate(items):
        tf = cache.transform(ga)
        bp[i] = (tf.position.x, tf.position.y, tf.position.z)
        qq = tf.orientation
        q[i] = (qq.w, qq.x, qq.y, qq.z)
        hh = ga.shape.half_extents
        h[i] = (hh.x, hh.y, hh.z)
        pn = gb.shape.normal
        n[i] = (pn.x, pn.y, pn.z)
        off[i] = gb.shape.offset
    # Local corners in Box.corners() order: sx outer, sy, sz inner.
    signs = np.array([(sx, sy, sz)
                      for sx in (-1.0, 1.0)
                      for sy in (-1.0, 1.0)
                      for sz in (-1.0, 1.0)])  # (8, 3)
    cx = signs[:, 0][None, :] * h[:, 0][:, None]   # (m, 8)
    cy = signs[:, 1][None, :] * h[:, 1][:, None]
    cz = signs[:, 2][None, :] * h[:, 2][:, None]
    w = q[:, 0][:, None]
    qx = q[:, 1][:, None]
    qy = q[:, 2][:, None]
    qz = q[:, 3][:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        rx, ry, rz = _rotate(w, qx, qy, qz, cx, cy, cz)
        px = rx + bp[:, 0][:, None]
        py = ry + bp[:, 1][:, None]
        pz = rz + bp[:, 2][:, None]
        sd = (n[:, 0][:, None] * px + n[:, 1][:, None] * py
              + n[:, 2][:, None] * pz) - off[:, None]
        emit = sd < CONTACT_MARGIN
        dep = np.maximum(0.0, -sd)
    out = []
    for i, (ga, gb) in enumerate(items):
        found = []
        if emit[i].any():
            pn = gb.shape.normal
            for k in np.nonzero(emit[i])[0]:
                found.append(Contact(
                    ga, gb, Vec3(px[i, k], py[i, k], pz[i, k]), pn,
                    float(dep[i, k]), feature=int(k)))
        out.append(found)
    return out


_BATCH_FN = {
    ("sphere", "sphere"): _batch_sphere_sphere,
    ("sphere", "plane"): _batch_sphere_plane,
    ("sphere", "box"): _batch_sphere_box,
    ("box", "plane"): _batch_box_plane,
    ("box", "box"): _batch_box_box,
}


def _test_batched(filtered):
    """One contact list per pair, in pair order: hot shape-kind groups
    through the array kernels, the rest through the scalar routines."""
    cache = _Cache()

    # Group by canonical dispatch kind; remember how to map back.
    plan = [None] * len(filtered)   # (group_key, slot, flipped) or None
    groups = {}
    for idx, (ga, gb) in enumerate(filtered):
        ka, kb = ga.shape.kind, gb.shape.kind
        if (ka, kb) in _BATCH_KINDS:
            key, item, flipped = (ka, kb), (ga, gb), False
        elif (kb, ka) in _BATCH_KINDS:
            key, item, flipped = (kb, ka), (gb, ga), True
        else:
            continue
        bucket = groups.setdefault(key, [])
        plan[idx] = (key, len(bucket), flipped)
        bucket.append(item)

    # Array dispatch has a fixed per-kernel cost; below a few pairs the
    # scalar routines (the very ones the kernels restate) are cheaper.
    results = {}
    for key, items in groups.items():
        if len(items) >= _BATCH_MIN or key == ("box", "box"):
            results[key] = _BATCH_FN[key](cache, items)
        else:
            results[key] = [collide(ga, gb) for ga, gb in items]

    found_per_pair = []
    for (ga, gb), p in zip(filtered, plan):
        if p is None:
            found = collide(ga, gb)
        else:
            key, slot, flipped = p
            found = results[key][slot]
            if flipped:
                found = [c.flipped(ga, gb) for c in found]
        found_per_pair.append(found)
    return found_per_pair


def collide_pairs(world, pairs, report):
    """Phase-2 narrowphase over broadphase pairs (numpy backend): the
    scalar phase's own bookkeeping around the batched pair tests."""
    return run_narrowphase(world, pairs, report, _test_batched)
