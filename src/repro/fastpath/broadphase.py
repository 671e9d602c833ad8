"""Vectorized sweep-and-prune with the scalar SAP's exact semantics.

The scalar :class:`~repro.collision.broadphase.SweepAndPrune` keeps the
geom list sorted by ``aabb.min.x`` across frames and sweeps an active
interval list.  Here the near-sorted maintenance uses a stable
argsort (same resulting order as a stable insertion sort), the sweep
becomes one ``searchsorted`` over the sorted interval starts, and the
candidate expansion plus y/z overlap filter run as flat array ops.  The
emitted pair list — and the ``tests`` / ``swaps`` counters feeding the
instruction model — are identical to the scalar strategy's.

The bounds come from :func:`fill_aabbs`: sphere and box AABBs in array
form, the unbounded plane and heightfield ones from the scalar shapes.
"""

from __future__ import annotations

import numpy as np

from ..collision.broadphase import _StatsMixin, _emit


def _pose(g):
    body = g.body
    if body is not None:
        return body.position, body.orientation
    t = g.static_transform
    return t.position, t.orientation


def fill_aabbs(geoms, mins, maxs):
    """Fill (n, 3) min/max arrays with each geom's exact AABB.

    Spheres and boxes batch through array restatements of the
    ``Shape.aabb`` formulas (same products, same association, so the
    bounds are bit-identical); planes and heightfields, a couple per
    world at most, fall back to the scalar ``geom.aabb()``.
    """
    sph = []
    box = []
    for i, g in enumerate(geoms):
        kind = g.shape.kind
        if kind == "sphere":
            sph.append(i)
        elif kind == "box":
            box.append(i)
        else:
            bb = g.aabb()
            bmin, bmax = bb.min, bb.max
            mins[i] = (bmin.x, bmin.y, bmin.z)
            maxs[i] = (bmax.x, bmax.y, bmax.z)
    if sph:
        m = len(sph)
        c = np.empty((m, 3))
        r = np.empty((m, 1))
        for row, i in enumerate(sph):
            g = geoms[i]
            p, _ = _pose(g)
            c[row] = (p.x, p.y, p.z)
            r[row, 0] = g.shape.radius
        idx = np.asarray(sph)
        mins[idx] = c - r
        maxs[idx] = c + r
    if box:
        m = len(box)
        c = np.empty((m, 3))
        q = np.empty((m, 4))
        h = np.empty((m, 3))
        for row, i in enumerate(box):
            g = geoms[i]
            p, o = _pose(g)
            c[row] = (p.x, p.y, p.z)
            q[row] = (o.w, o.x, o.y, o.z)
            hh = g.shape.half_extents
            h[row] = (hh.x, hh.y, hh.z)
        w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
        xx, yy, zz = x * x, y * y, z * z
        xy, xz, yz = x * y, x * z, y * z
        wx, wy, wz = w * x, w * y, w * z
        hx, hy, hz = h[:, 0], h[:, 1], h[:, 2]
        e = np.empty((m, 3))
        e[:, 0] = (np.abs(1 - 2 * (yy + zz)) * hx
                   + np.abs(2 * (xy - wz)) * hy
                   + np.abs(2 * (xz + wy)) * hz)
        e[:, 1] = (np.abs(2 * (xy + wz)) * hx
                   + np.abs(1 - 2 * (xx + zz)) * hy
                   + np.abs(2 * (yz - wx)) * hz)
        e[:, 2] = (np.abs(2 * (xz - wy)) * hx
                   + np.abs(2 * (yz + wx)) * hy
                   + np.abs(1 - 2 * (xx + yy)) * hz)
        idx = np.asarray(box)
        mins[idx] = c - e
        maxs[idx] = c + e


def _inversion_count(keys) -> int:
    """Number of inversions == shifts a stable insertion sort performs."""
    n = len(keys)
    if n < 2:
        return 0
    # Rank-compress (stable ranks make ties compare like the scalar
    # sort's strict ``>``), then count earlier-seen larger ranks with a
    # Fenwick tree.
    ranks = np.argsort(np.argsort(keys, kind="stable"), kind="stable")
    tree = [0] * (n + 1)
    inversions = 0
    for seen, r in enumerate(ranks):
        seen_le = 0
        i = int(r) + 1
        while i > 0:
            seen_le += tree[i]
            i -= i & (-i)
        inversions += seen - seen_le
        i = int(r) + 1
        while i <= n:
            tree[i] += 1
            i += i & (-i)
    return inversions


class VectorSweepAndPrune(_StatsMixin):
    """Drop-in for ``SweepAndPrune`` with vectorized sweep (x sorted,
    y/z filtered)."""

    name = "sap"

    def __init__(self):
        self._order = []
        self.tests = 0
        self.swaps = 0

    def pairs(self, geoms):
        live = [g for g in geoms if g.enabled]
        live_set = set(g.uid for g in live)
        order = [g for g in self._order if g.uid in live_set]
        known = set(g.uid for g in order)
        for g in live:
            if g.uid not in known:
                order.append(g)

        n = len(order)
        if n == 0:
            self._order = []
            self.tests = 0
            self.swaps = 0
            self.last_pairs = 0
            self.last_order = []
            return []

        mins = np.empty((n, 3), dtype=np.float64)
        maxs = np.empty((n, 3), dtype=np.float64)
        fill_aabbs(order, mins, maxs)

        keys = mins[:, 0]
        # Coherent frames usually arrive already sorted; a sorted key
        # sequence has zero inversions and a stable argsort of it is
        # the identity, so the Fenwick count and the permutation
        # reindex can be skipped without changing anything.
        if n < 2 or bool(np.all(keys[1:] >= keys[:-1])):
            self.swaps = 0
        else:
            self.swaps = _inversion_count(keys)
            perm = np.argsort(keys, kind="stable")
            order = [order[i] for i in perm]
            mins = mins[perm]
            maxs = maxs[perm]
        self._order = order
        smin = mins[:, 0]
        smax = maxs[:, 0]

        # For sorted entry i, every j in (i, hi[i]) satisfies
        # smin[j] <= smax[i] — the scalar sweep's closed-interval
        # active-list condition seen from the earlier entry.
        hi = np.searchsorted(smin, smax, side="right")
        counts = np.maximum(hi - np.arange(1, n + 1), 0)
        total = int(counts.sum())
        if total == 0:
            self.tests = 0
            self.last_pairs = 0
            self.last_order = [g.uid for g in order]
            return []
        ii = np.repeat(np.arange(n), counts)
        cum = np.concatenate(([0], np.cumsum(counts[:-1])))
        jj = np.arange(total) - cum[ii] + ii + 1

        static = np.fromiter((g.is_static for g in order), dtype=bool,
                             count=n)
        keep = ~(static[ii] & static[jj])
        ii, jj = ii[keep], jj[keep]
        self.tests = int(len(ii))

        overlap = (
            (mins[ii, 1] <= maxs[jj, 1]) & (mins[jj, 1] <= maxs[ii, 1])
            & (mins[ii, 2] <= maxs[jj, 2]) & (mins[jj, 2] <= maxs[ii, 2])
        )
        ii, jj = ii[overlap], jj[overlap]

        out = [_emit(order[i], order[j]) for i, j in zip(ii, jj)]
        out.sort(key=lambda p: (p[0].index, p[1].index))
        self.last_pairs = len(out)
        self.last_order = [g.uid for g in order]
        return out
