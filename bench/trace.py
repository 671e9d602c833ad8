"""In-memory span recorder and the wrappers that feed it.

The traced pass measures every layer *from outside*: nothing in
``src/repro`` knows it is being timed. A :class:`Recorder` holds spans
(name, start, end, parent span, request id) in memory; :meth:`wrap`
replaces one entry point on the object its callers look it up on with a
timing wrapper; :func:`self_times` turns the spans into per-name self
time (a span's duration minus the part its child spans cover). Spans
are written out once, when the pass ends.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from time import perf_counter

#: Rows written to a trace file; later spans are summarised only (a
#: contact-heavy pass records several hundred thousand).
WRITE_LIMIT = 50_000


class Recorder:
    """Span store + the stack of spans currently open.

    Spans live in parallel columns (``names[i]``, ``starts[i]``,
    ``ends[i]``, ``parents[i]``, ``requests[i]``) of flat arrays, not
    one object per span: a few hundred thousand live containers make
    the cyclic collector the dominant tracing cost.

    ``enabled`` gates recording without uninstalling the wrappers, so
    warm-up frames run the same code but leave no spans. ``request``
    is stamped on every span opened while it is set
    (``workload/pass/session/frame``), so the spans of one client
    request share an identifier. ``counts`` holds counters taken at the
    same boundaries as the spans.
    """

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = []
        self.counts = {}
        self.enabled = True
        self.request = None
        self._stack = []
        self._undo = []

    def __len__(self):
        return len(self.names)

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int):
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` body."""
        if not self.enabled:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None):
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is whatever the callers resolve the entry point on: a
        module for a function reached as ``module.func``, the importing
        module for a function imported by name, a class for a method.
        ``after(recorder, result)`` runs outside the span, for counts
        that need the call's result.
        """
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        recorder = self

        def timed(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            index = recorder.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.end(index)
            if after is not None:
                after(recorder, result)
            return result

        timed.__wrapped__ = func
        timed.__name__ = getattr(func, "__name__", attr)
        setattr(owner, attr,
                classmethod(timed) if isinstance(raw, classmethod)
                else timed)
        self._undo.append((owner, attr, raw))

    def uninstall(self):
        """Put every wrapped entry point back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- output ---------------------------------------------------------
    def write(self, path: str, **header):
        """Write the self-time table and the first :data:`WRITE_LIMIT`
        spans as JSON: a name table plus one compact row ``[name index,
        start µs, duration µs, parent row, request]`` per span, times
        relative to the first span. A parent always precedes its
        children, so a prefix of the rows is a consistent forest."""
        labels = sorted(set(self.names))
        index_of = {name: i for i, name in enumerate(labels)}
        origin = self.starts[0] if len(self) else 0.0
        written = min(len(self), WRITE_LIMIT)
        rows = [
            [index_of[self.names[i]],
             round((self.starts[i] - origin) * 1e6, 1),
             round((self.ends[i] - self.starts[i]) * 1e6, 1),
             self.parents[i], self.requests[i]]
            for i in range(written)
        ]
        payload = dict(header)
        payload.update({
            "spans_recorded": len(self),
            "spans_written": written,
            "self_ms": {name: seconds * 1e3 for name, seconds
                        in sorted(self_times(self).items())},
            "calls": dict(sorted(call_counts(self).items())),
            "counts": dict(sorted(self.counts.items())),
            "columns": ["name", "start_us", "duration_us", "parent",
                        "request"],
            "names": labels,
            "spans": rows,
        })
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(recorder: Recorder) -> dict:
    """Per-name self time in seconds over the recorder's closed spans.

    A span's self time is its duration minus the durations of its
    direct children (children never overlap: the program under test is
    single-threaded wherever it is traced), so the self times of a tree
    sum to the duration of its root.
    """
    starts, ends, parents = (recorder.starts, recorder.ends,
                             recorder.parents)
    covered = [0.0] * len(recorder)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    totals = {}
    for index, name in enumerate(recorder.names):
        own = ends[index] - starts[index] - covered[index]
        totals[name] = totals.get(name, 0.0) + own
    return totals


def call_counts(recorder: Recorder) -> dict:
    """How many spans carry each name."""
    counts = {}
    for name in recorder.names:
        counts[name] = counts.get(name, 0) + 1
    return counts
