"""Broadphase strategies: candidate-pair generation from AABBs.

The primary strategy is incremental sweep-and-prune: geoms stay sorted
along one axis between calls, so the near-sorted insertion sort is
~O(n) on coherent frames and the sweep emits only x-overlapping pairs
for the (cheap) y/z AABB check. Brute force and a uniform spatial hash
exist as ablation baselines.

All strategies return pairs ordered by ``(min(index), max(index))`` so
every downstream phase iterates deterministically, and never emit
static-static pairs.
"""

from __future__ import annotations


class _StatsMixin:
    """Uniform ``last_stats`` view over per-strategy counters."""

    @property
    def last_stats(self) -> dict:
        return {
            "tests": getattr(self, "tests", 0),
            "swaps": getattr(self, "swaps", 0),
            "pairs": getattr(self, "last_pairs", 0),
        }


def _pair_key(ga, gb):
    if ga.index <= gb.index:
        return (ga.index, gb.index)
    return (gb.index, ga.index)


def _emit(ga, gb):
    return (ga, gb) if ga.index <= gb.index else (gb, ga)


class BruteForceBroadphase(_StatsMixin):
    """O(n^2) AABB tests — the correctness reference."""

    name = "brute"

    def __init__(self):
        self.tests = 0

    def pairs(self, geoms):
        geoms = [g for g in geoms if g.enabled]
        boxes = [(g, g.aabb()) for g in geoms]
        out = []
        tests = 0
        for i in range(len(boxes)):
            gi, bi = boxes[i]
            for j in range(i + 1, len(boxes)):
                gj, bj = boxes[j]
                if gi.is_static and gj.is_static:
                    continue
                tests += 1
                if bi.overlaps(bj):
                    out.append(_emit(gi, gj))
        self.tests = tests
        out.sort(key=lambda p: (p[0].index, p[1].index))
        self.last_pairs = len(out)
        self.last_order = [g.uid for g in geoms]
        return out


class SweepAndPrune(_StatsMixin):
    """Incremental single-axis sweep-and-prune: geoms sorted and swept
    on x, candidates filtered by y/z overlap."""

    name = "sap"

    def __init__(self):
        self._order = []  # geoms, kept sorted by aabb.min.x
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

        boxes = {g.uid: g.aabb() for g in order}

        # Insertion sort: near-sorted from the previous frame.
        swaps = 0
        keys = {g.uid: boxes[g.uid].min.x for g in order}
        for i in range(1, len(order)):
            g = order[i]
            k = keys[g.uid]
            j = i - 1
            while j >= 0 and keys[order[j].uid] > k:
                order[j + 1] = order[j]
                j -= 1
                swaps += 1
            order[j + 1] = g
        self._order = order
        self.swaps = swaps

        # Sweep: active set of intervals still open at the current min.
        out = []
        tests = 0
        active = []
        for g in order:
            box = boxes[g.uid]
            lo = box.min.x
            active = [(other, obox) for other, obox in active
                      if obox.max.x >= lo]
            for other, obox in active:
                if g.is_static and other.is_static:
                    continue
                tests += 1
                if (box.min.y <= obox.max.y and obox.min.y <= box.max.y
                        and box.min.z <= obox.max.z
                        and obox.min.z <= box.max.z):
                    out.append(_emit(g, other))
            active.append((g, box))
        self.tests = tests
        out.sort(key=lambda p: (p[0].index, p[1].index))
        self.last_pairs = len(out)
        self.last_order = [g.uid for g in order]
        return out


class SpatialHashBroadphase(_StatsMixin):
    """Uniform grid hash; good when object sizes are homogeneous."""

    name = "hash"

    def __init__(self, cell_size: float = 2.0):
        self.cell_size = cell_size
        self.tests = 0

    def _cells(self, box):
        inv = 1.0 / self.cell_size
        x0 = int(box.min.x * inv) if abs(box.min.x) < 1e8 else -1
        x1 = int(box.max.x * inv) if abs(box.max.x) < 1e8 else 1
        y0 = int(box.min.y * inv) if abs(box.min.y) < 1e8 else -1
        y1 = int(box.max.y * inv) if abs(box.max.y) < 1e8 else 1
        z0 = int(box.min.z * inv) if abs(box.min.z) < 1e8 else -1
        z1 = int(box.max.z * inv) if abs(box.max.z) < 1e8 else 1
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                for cz in range(z0, z1 + 1):
                    yield (cx, cy, cz)

    def pairs(self, geoms):
        live = [g for g in geoms if g.enabled]
        boxes = {g.uid: g.aabb() for g in live}
        # Unbounded geoms (planes, heightfields) are checked against
        # everything rather than hashed into every cell.
        unbounded = [g for g in live
                     if boxes[g.uid].extents().x > 1e8]
        bounded = [g for g in live if boxes[g.uid].extents().x <= 1e8]

        grid = {}
        for g in bounded:
            for cell in self._cells(boxes[g.uid]):
                grid.setdefault(cell, []).append(g)

        seen = set()
        out = []
        tests = 0
        for bucket in grid.values():
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    gi, gj = bucket[i], bucket[j]
                    if gi.is_static and gj.is_static:
                        continue
                    key = _pair_key(gi, gj)
                    if key in seen:
                        continue
                    seen.add(key)
                    tests += 1
                    if boxes[gi.uid].overlaps(boxes[gj.uid]):
                        out.append(_emit(gi, gj))
        for u in unbounded:
            for g in bounded:
                if u.is_static and g.is_static:
                    continue
                key = _pair_key(u, g)
                if key in seen:
                    continue
                seen.add(key)
                tests += 1
                if boxes[u.uid].overlaps(boxes[g.uid]):
                    out.append(_emit(u, g))
        self.tests = tests
        out.sort(key=lambda p: (p[0].index, p[1].index))
        self.last_pairs = len(out)
        self.last_order = [g.uid for g in bounded + unbounded]
        return out


BROADPHASES = {
    "sap": SweepAndPrune,
    "brute": BruteForceBroadphase,
    "hash": SpatialHashBroadphase,
}
