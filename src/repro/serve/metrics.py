"""Observability for the simulation service.

Frame times land in fixed log-spaced histograms (cheap to record, cheap
to merge across shards, JSON-native to export), from which p50/p95/p99
are estimated by linear interpolation within the owning bucket. The
single wall-clock read lives here in :func:`now`: *measuring* a step is
legitimate, *feeding* wall time into the step path is not — keeping the
one suppressed call in one place preserves that boundary for PaxLint.
"""

from __future__ import annotations

import math
import time


def now() -> float:
    """Monotonic timestamp for measuring service latency.

    The only wall-clock read in ``repro.serve``; simulation code keeps
    using ``world.time`` (fixed-dt) so replay stays bit-identical.
    """
    # pax: ignore[PAX104]: latency measurement around the step, never
    # an input to it; centralized so the rest of serve stays clock-free.
    return time.perf_counter()


#: Every frame-time histogram has the same shape, so any two merge:
#: ``HISTOGRAM_BUCKETS`` log-spaced buckets over
#: [``HISTOGRAM_LO``, ``HISTOGRAM_HI``) seconds, 10µs .. 100s — frame
#: times from a trivial 10-body world to a pathological quarantine
#: candidate all land inside.
HISTOGRAM_LO = 1e-5
HISTOGRAM_HI = 100.0
HISTOGRAM_BUCKETS = 64
_LOG_LO = math.log(HISTOGRAM_LO)
_SCALE = HISTOGRAM_BUCKETS / (math.log(HISTOGRAM_HI) - _LOG_LO)


class FrameTimeHistogram:
    """Log-spaced latency histogram of the module's fixed shape.

    Records are O(1); percentile estimates interpolate within the
    bucket, which is plenty for p95 dashboards.
    """

    def __init__(self):
        self.counts = [0] * (HISTOGRAM_BUCKETS + 2)  # +under, +overflow
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def record(self, seconds: float):
        self.total += 1
        self.sum += seconds
        if seconds > self.max:
            self.max = seconds
        self.counts[self._bucket(seconds)] += 1

    @staticmethod
    def _bucket(seconds: float) -> int:
        if seconds < HISTOGRAM_LO:
            return 0
        if seconds >= HISTOGRAM_HI:
            return HISTOGRAM_BUCKETS + 1
        k = int((math.log(seconds) - _LOG_LO) * _SCALE)
        return min(k, HISTOGRAM_BUCKETS - 1) + 1

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (0..100); 0.0 when empty."""
        if self.total == 0:
            return 0.0
        rank = p / 100.0 * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                if index == 0:
                    return HISTOGRAM_LO
                if index == HISTOGRAM_BUCKETS + 1:
                    return self.max
                # Interior bucket ``index`` (1-based) spans [lo, hi).
                step = 1.0 / _SCALE
                lo = math.exp(_LOG_LO + (index - 1) * step)
                hi = math.exp(_LOG_LO + index * step)
                frac = (rank - seen) / count
                return lo + (hi - lo) * frac
            seen += count
        return self.max

    def merge(self, other: "FrameTimeHistogram"):
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "total": self.total, "sum": self.sum, "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FrameTimeHistogram":
        hist = cls()
        hist.counts = list(data["counts"])
        hist.total = data["total"]
        hist.sum = data["sum"]
        hist.max = data["max"]
        return hist

    def summary(self) -> dict:
        """The dashboard row: count, mean, p50/p95/p99, max."""
        return {
            "count": self.total,
            "mean_s": self.sum / self.total if self.total else 0.0,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "max_s": self.max,
        }


class ShardMetrics:
    """Per-shard counters + frame-time histograms (shard and session).

    Workers own one instance each; ``snapshot()`` travels the wire and
    :func:`merge_snapshots` folds any number of them into the
    cluster-wide view ``SimService.stats`` returns.
    """

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.frame_times = FrameTimeHistogram()
        self.session_frame_times = {}  # session_id -> histogram
        self.counters = {
            "commands": 0,
            "frames": 0,
            "sessions_created": 0,
            "sessions_destroyed": 0,
            "sessions_restored": 0,
            "quarantines": 0,
            "quarantine_releases": 0,
            "watchdog_events": 0,
            "errors": 0,
        }
        self.queue_depth_peak = 0

    def count(self, name: str, delta: int = 1):
        self.counters[name] = self.counters.get(name, 0) + delta

    def observe_frame(self, session_id: str, seconds: float):
        self.frame_times.record(seconds)
        hist = self.session_frame_times.get(session_id)
        if hist is None:
            hist = self.session_frame_times[session_id] = \
                FrameTimeHistogram()
        hist.record(seconds)
        self.count("frames")

    def observe_queue_depth(self, depth: int):
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def forget_session(self, session_id: str):
        self.session_frame_times.pop(session_id, None)

    def snapshot(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "counters": dict(self.counters),
            "queue_depth_peak": self.queue_depth_peak,
            "frame_times": self.frame_times.to_dict(),
            "frame_time_summary": self.frame_times.summary(),
            "sessions": {
                session_id: hist.summary()
                for session_id, hist in
                self.session_frame_times.items()
            },
        }


def merge_snapshots(snapshots) -> dict:
    """Fold per-shard metric snapshots into the cluster-wide view."""
    merged = FrameTimeHistogram()
    counters = {}
    queue_peak = 0
    for snap in snapshots:
        merged.merge(FrameTimeHistogram.from_dict(snap["frame_times"]))
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        queue_peak = max(queue_peak, snap["queue_depth_peak"])
    return {
        "counters": counters,
        "queue_depth_peak": queue_peak,
        "frame_time_summary": merged.summary(),
        "shards": list(snapshots),
    }
