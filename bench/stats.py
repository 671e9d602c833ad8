"""Sample statistics for the benchmark: percentiles and pass aggregation.

Kept free of any ``repro`` import so the rules can be unit-tested
without building a world.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with this many samples beyond it
#: (choosing-metrics: "the highest percentile that has at least ten
#: samples beyond it").
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of a sample too small to carry it."""


def percentile(samples, p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``samples``.

    The median is always defined; any percentile above it needs at
    least :data:`MIN_BEYOND` samples strictly beyond its rank, so a p95
    needs 200 samples and 32 frames can carry nothing past p68.
    """
    n = len(samples)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    if p > 50 and n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def tail_or_none(samples, p: float):
    """:func:`percentile`, or None where the sample cannot carry it."""
    try:
        return percentile(samples, p)
    except TooFewSamples:
        return None


def client_figures(series: dict) -> dict:
    """The client-observed figures of one measured window.

    ``series`` holds ``segments`` (consecutive durations that tile the
    window, in seconds), ``latencies`` (one per client request, each
    request one world-frame, in seconds), and for single workloads
    ``migrations`` (seconds each) or ``regen`` (the window is a whole
    regeneration). Used on one pass's own series and on the
    per-operation minima over the passes of a run.
    """
    window = sum(series["segments"])
    tail = tail_or_none(series["latencies"], 95)
    figures = {
        "frames_per_s": len(series["latencies"]) / window,
        "frame_ms_p50": percentile(series["latencies"], 50) * 1e3,
        "frame_ms_p95": None if tail is None else tail * 1e3,
    }
    if series.get("migrations"):
        figures["migrate_ms_p50"] = (
            percentile(series["migrations"], 50) * 1e3)
    if series.get("regen"):
        figures["regen_s"] = window
    return figures


def fastest(passes) -> list:
    """Per-operation minimum over passes that replay the same
    operations: ``passes`` is one equal-length list per pass."""
    return [min(column) for column in zip(*passes)]


def aggregate(values, better: str) -> dict:
    """Fold one metric's per-pass values into the reported figures.

    ``median`` is the headline; ``best`` is the pass least disturbed by
    the neighbour (min for "lower", max for "higher" — interference
    only ever adds time); ``iqr``/``rel_iqr`` keep the pass-to-pass
    noise visible beside the number.
    """
    values = list(values)
    if not values:
        raise ValueError("no passes to aggregate")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "median": median,
        "best": min(values) if better == "lower" else max(values),
        "iqr": iqr,
        "rel_iqr": iqr / abs(median) if median else 0.0,
        "n": len(values),
        "passes": values,
    }


def worsening(first: float, second: float, better: str) -> float:
    """Relative amount by which ``second`` is worse than ``first``
    (negative when it is better), as a share of ``first``."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta
