"""Trace-driven cache models: exact set-associative LRU simulation and
one-pass Mattson stack-distance profiling.

Two complementary tools:

* :class:`CacheSim` replays a block-address trace through a real
  set-associative LRU array (optionally with a next-N-line prefetcher).
  Exact, but one run per configuration.
* :class:`StackDistanceProfile` computes LRU stack distances in one
  pass (Fenwick-tree Mattson algorithm), labelled per phase. Miss
  counts for *every* capacity fall out of the same histogram, and they
  are monotone in capacity by construction — which is what makes the
  L2 sweep figures well-behaved.

Both consume the ``TouchGroup`` traces recorded by the engine
(:mod:`repro.profiling.memtrace`). Repeat groups (a solver sweeping an
island's rows 20 times) are handled analytically: after the first
sweep, every subsequent sweep of an F-block footprint re-references at
stack distance ~F, so the remaining ``(repeat-1) * F`` accesses go
straight into the histogram without being replayed.

:meth:`StackDistanceProfile.from_report` is memoised process-wide per
report (held weakly; dropped once the report's touch trace grows), so
machines, figure drivers and :mod:`repro.arch.waypart` share one pass
per trace. The profiles it hands out are shared: read, don't mutate.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from itertools import accumulate

from ..profiling import memtrace
from ..profiling.report import PHASES

BLOCK = 64

# report -> (touch groups recorded when profiled,
#            {(phase set, label_by_phase): StackDistanceProfile})
_profiles = weakref.WeakKeyDictionary()


class StackDistanceProfile:
    """Per-label LRU stack-distance histogram of a touch trace."""

    def __init__(self):
        # label -> {distance: count}; distance in 64B lines.
        self.histograms = {}
        self.cold = {}
        self.accesses = {}
        # label -> (sorted distances, accesses at or beyond each).
        self._beyond = {}

    # -- building -------------------------------------------------------
    @classmethod
    def from_report(cls, report, phases=None, label_by_phase=True):
        """Profile the pipeline-ordered trace of a FrameReport
        (memoised; ``phases`` is a set, ``None`` meaning all five)."""
        wanted = frozenset(PHASES if phases is None else phases)
        recorded = sum(map(len, report.step_touches))
        entry = _profiles.get(report)
        if entry is None or entry[0] != recorded:
            entry = _profiles[report] = (recorded, {})
        key = (wanted, label_by_phase)
        profile = entry[1].get(key)
        if profile is None:
            profile = entry[1][key] = cls.from_groups(
                (phase if label_by_phase else "all", group)
                for phase, group in memtrace.step_groups(report, wanted))
        return profile

    @classmethod
    def from_groups(cls, labelled_groups):
        self = cls()
        sweeps = []  # (label, blocks, extra_repeats)
        total = 0
        for label, group in labelled_groups:
            blocks = memtrace.group_blocks(group)
            if not blocks:
                continue
            sweeps.append((label, blocks, group.repeat - 1))
            total += len(blocks)

        # Fenwick tree over access times, one mark at the latest access
        # of every block seen so far: the marks after ``prev`` are the
        # distinct blocks touched since, i.e. the stack distance.
        tree = [0] * (total + 1)
        last_time = {}
        t = 0
        for label, blocks, extra in sweeps:
            hist = self.histograms.setdefault(label, {})
            cold = 0
            for block in blocks:
                t += 1
                prev = last_time.get(block)
                if prev is None:
                    cold += 1
                else:
                    d = len(last_time)
                    i = prev
                    while i > 0:
                        d -= tree[i]
                        i -= i & -i
                    hist[d] = hist.get(d, 0) + 1
                    i = prev
                    while i <= total:
                        tree[i] -= 1
                        i += i & -i
                i = t
                while i <= total:
                    tree[i] += 1
                    i += i & -i
                last_time[block] = t
            if cold:
                self.cold[label] = self.cold.get(label, 0) + cold
            self.accesses[label] = (self.accesses.get(label, 0)
                                    + len(blocks) * (extra + 1))
            if extra > 0:
                footprint = len(set(blocks))
                hist[footprint] = (hist.get(footprint, 0)
                                   + extra * len(blocks))
        for label, hist in self.histograms.items():
            dists = sorted(hist)
            beyond = list(accumulate(hist[d] for d in reversed(dists)))[::-1]
            self._beyond[label] = (dists, beyond + [0])
        return self

    # -- queries --------------------------------------------------------
    def labels(self):
        return sorted(self.histograms)

    def misses(self, capacity_bytes: float, labels=None) -> float:
        """Accesses (by the given labels) that miss in a fully
        associative LRU cache of ``capacity_bytes``."""
        lines = max(1, int(capacity_bytes) // BLOCK)
        wanted = self.labels() if labels is None else labels
        total = 0
        for label in wanted:
            total += self.cold.get(label, 0)
            if label in self._beyond:
                dists, beyond = self._beyond[label]
                total += beyond[bisect_left(dists, lines)]
        return float(total)

    def total_accesses(self, labels=None) -> float:
        wanted = self.labels() if labels is None else labels
        return float(sum(self.accesses.get(lb, 0) for lb in wanted))


class CacheSim:
    """Exact set-associative LRU cache, optionally prefetching."""

    def __init__(self, capacity_bytes: int, ways: int = 8,
                 line: int = BLOCK, prefetch_depth: int = 0):
        self.line = line
        self.ways = ways
        self.sets = max(1, int(capacity_bytes) // (ways * line))
        # Each set: list of block ids, most-recent last.
        self._sets = [[] for _ in range(self.sets)]
        self.prefetch_depth = prefetch_depth
        self._prefetched = set()
        self.hits = 0
        self.misses = 0
        self.prefetch_hits = 0
        self.per_label = {}

    def _touch(self, block: int, insert_only: bool = False) -> bool:
        s = self._sets[block % self.sets]
        try:
            s.remove(block)
            hit = True
        except ValueError:
            hit = False
        if hit or not insert_only or len(s) < self.ways:
            s.append(block)
            if len(s) > self.ways:
                evicted = s.pop(0)
                self._prefetched.discard(evicted)
        return hit

    def access(self, block: int, label=None) -> bool:
        hit = self._touch(block)
        if hit and block in self._prefetched:
            self._prefetched.discard(block)
            self.prefetch_hits += 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            if self.prefetch_depth:
                for nxt in range(block + 1,
                                 block + 1 + self.prefetch_depth):
                    if not self._touch(nxt):
                        self._prefetched.add(nxt)
        if label is not None:
            stats = self.per_label.setdefault(label, [0, 0])
            stats[0 if hit else 1] += 1
        return hit

    def run(self, blocks, label=None):
        for block in blocks:
            self.access(block, label)
        return self
