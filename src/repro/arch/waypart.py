"""Way-partitioned shared L2: exact simulator + analytical model.

The paper's application-aware L2 scheme gives each pipeline stage its
own slice of the shared L2 so the streaming phases cannot evict the
reused structures of the others. Two implementations:

* :class:`WayPartitionedCache` — exact set-associative simulation
  where each owner (phase) allocates into and looks up only its
  assigned ways, exactly the paper's dedicated-slice-per-phase
  scheme (Fig 3-5 model each phase against a private L2).
* :func:`model_misses` — the cheap stack-distance model: each owner
  behaves like a private LRU cache of ``capacity * ways_owner / ways``.

``validate`` runs both on the same report trace and reports the
relative error, which the extension benches require to stay small.
"""

from __future__ import annotations

from ..profiling import memtrace
from .cache import BLOCK, StackDistanceProfile

__all__ = ["WayPartitionedCache", "model_misses", "validate"]

#: Ways of the partitioned L2, and ``validate``'s split of them.
WAYS = 12
ALLOCATION = {"broadphase": 4, "narrowphase": 4, "island_creation": 4}


class WayPartitionedCache:
    """Set-associative LRU cache with per-owner way allocation."""

    def __init__(self, capacity_bytes: int, allocation):
        if not allocation:
            raise ValueError("allocation {owner: ways} required")
        if sum(allocation.values()) > WAYS:
            raise ValueError("allocation exceeds total ways")
        self.allocation = dict(allocation)
        self.sets = max(1, int(capacity_bytes) // (WAYS * BLOCK))
        # Per set, per owner: block list in LRU order (MRU last).
        self._sets = [
            {owner: [] for owner in allocation}
            for _ in range(self.sets)
        ]
        self.hits = {owner: 0 for owner in allocation}
        self.misses = {owner: 0 for owner in allocation}

    def access(self, block: int, owner: str) -> bool:
        s = self._sets[block % self.sets]
        lines = s[owner]
        if block in lines:
            lines.remove(block)
            lines.append(block)
            self.hits[owner] += 1
            return True
        self.misses[owner] += 1
        lines.append(block)
        if len(lines) > self.allocation[owner]:
            lines.pop(0)
        return False

    def run_report(self, report, phases=None):
        wanted = set(self.allocation) if phases is None else set(phases)
        for block, phase, _writes in memtrace.expand(report):
            if phase in wanted:
                self.access(block, phase)
        return self


def model_misses(report, capacity_bytes: int, allocation) -> dict:
    """Stack-distance prediction of per-owner misses under
    way-partitioning: owner sees a private cache of its slice."""
    out = {}
    for owner, owner_ways in allocation.items():
        profile = StackDistanceProfile.from_report(
            report, phases=(owner,))
        slice_bytes = capacity_bytes * owner_ways / WAYS
        out[owner] = profile.misses(slice_bytes, (owner,))
    return out


def validate(report, capacity_bytes: int = 4 * 1024 * 1024) -> dict:
    """Exact vs model misses per owner under :data:`ALLOCATION`;
    returns per-owner dicts with ``exact``, ``model`` and
    ``relative_error``."""
    sim = WayPartitionedCache(capacity_bytes, ALLOCATION)
    sim.run_report(report, phases=ALLOCATION)
    predicted = model_misses(report, capacity_bytes, ALLOCATION)
    out = {}
    for owner in ALLOCATION:
        exact = float(sim.misses[owner])
        model = float(predicted[owner])
        err = abs(exact - model) / max(exact, 1.0)
        out[owner] = {
            "exact": exact,
            "model": model,
            "relative_error": err,
        }
    return out
