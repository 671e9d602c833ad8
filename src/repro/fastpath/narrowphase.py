"""Batched narrowphase pair tests (bit-identical to the scalar ones).

``collide_pairs`` replaces the world's per-pair phase-2 loop for
``backend="numpy"``: candidate pairs are grouped by shape-kind, and
three kinds run as batch kernels.  Sphere/plane and box/plane restate
the scalar formulas component-by-component in NumPy; box/box runs in
``pgs.c``'s ``box_box``, one call per sub-step, or through the scalar
``collide`` without the native library.  Every other kind goes
through ``collide``.

Contacts come out in the scalar loop's exact order: pair order is
preserved, and within a pair the kernel emits points in the same order
the scalar routine appends them.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..collision.narrowphase import (
    CONTACT_MARGIN,
    Contact,
    collide,
)
from ..engine.scalar import narrowphase as run_narrowphase
from ..math3d import Vec3
from . import solver


def _rotate(w, x, y, z, vx, vy, vz):
    """Quaternion.rotate, componentwise (floats or arrays)."""
    uvx = y * vz - z * vy
    uvy = z * vx - x * vz
    uvz = x * vy - y * vx
    uuvx = y * uvz - z * uvy
    uuvy = z * uvx - x * uvz
    uuvz = x * uvy - y * uvx
    return (vx + (uvx * w + uuvx) * 2.0,
            vy + (uvy * w + uuvy) * 2.0,
            vz + (uvz * w + uuvz) * 2.0)


# ---------------------------------------------------------------------------
# batch kernels — each takes the group's geom pairs in *canonical*
# (dispatch) order and returns one contact list per pair.


def _batch_sphere_plane(items):
    m = len(items)
    c = np.empty((m, 3))
    r = np.empty(m)
    n = np.empty((m, 3))
    off = np.empty(m)
    for i, (ga, gb) in enumerate(items):
        p = ga.transform.position
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


def _batch_box_plane(items):
    m = len(items)
    bp = np.empty((m, 3))
    q = np.empty((m, 4))
    h = np.empty((m, 3))
    n = np.empty((m, 3))
    off = np.empty(m)
    for i, (ga, gb) in enumerate(items):
        tf = ga.transform
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


# pgs.c's box_box: doubles per emitted point, and the most points one
# pair emits (every corner of both boxes).
_POINT, _MAX_POINTS = 5, 16


def box_box(lib, items):
    """``collide``'s contact lists for box/box pairs, from one C call.

    A pair for which the C SAT picked no axis (only a NaN or infinite
    pose allows that) goes to ``collide``, which raises on it.
    """
    m = len(items)
    flat = []
    for ga, gb in items:
        for g in (ga, gb):
            tf = g.transform
            p, q, h = tf.position, tf.orientation, g.shape.half_extents
            flat += (p.x, p.y, p.z, q.w, q.x, q.y, q.z, h.x, h.y, h.z)
    pairs = array("d", flat)
    count = array("i", bytes(4 * m))
    normal = array("d", bytes(8 * 3 * m))
    points = array("d", bytes(8 * _POINT * _MAX_POINTS * m))
    lib.box_box(pairs.buffer_info()[0], m, count.buffer_info()[0],
                normal.buffer_info()[0], points.buffer_info()[0])
    out = []
    for i, (ga, gb) in enumerate(items):
        k = count[i]
        if k < 0:
            out.append(collide(ga, gb))
            continue
        n = Vec3(*normal[3 * i:3 * i + 3])
        start = _POINT * _MAX_POINTS * i
        found = []
        for at in range(start, start + _POINT * k, _POINT):
            x, y, z, depth, feature = points[at:at + _POINT]
            found.append(Contact(ga, gb, Vec3(x, y, z), n, depth,
                                 feature=int(feature)))
        out.append(found)
    return out


def _batch_box_box(items):
    lib = solver._native()
    if lib is None:
        return [collide(ga, gb) for ga, gb in items]
    return box_box(lib, items)


_BATCH_FN = {
    ("sphere", "plane"): _batch_sphere_plane,
    ("box", "plane"): _batch_box_plane,
    ("box", "box"): _batch_box_box,
}


def _test_batched(filtered):
    """One contact list per pair, in pair order: batched shape-kind
    groups through their kernels, the rest through ``collide``."""
    # Group by canonical dispatch kind; remember how to map back.
    plan = [None] * len(filtered)   # (group_key, slot, flipped) or None
    groups = {}
    for idx, (ga, gb) in enumerate(filtered):
        ka, kb = ga.shape.kind, gb.shape.kind
        if (ka, kb) in _BATCH_FN:
            key, item, flipped = (ka, kb), (ga, gb), False
        elif (kb, ka) in _BATCH_FN:
            key, item, flipped = (kb, ka), (gb, ga), True
        else:
            continue
        bucket = groups.setdefault(key, [])
        plan[idx] = (key, len(bucket), flipped)
        bucket.append(item)

    results = {key: _BATCH_FN[key](items)
               for key, items in groups.items()}

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
