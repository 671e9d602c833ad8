"""Expand recorded TouchGroups into 64-byte-block address traces.

The engine records *which records* each phase touched (geoms, bodies,
contacts, solver rows, cloth vertices) into ``FrameReport.step_touches``;
this module lays those records out in flat per-kind regions and expands
the groups into the block-address streams the cache models consume.

Record sizes follow the paper's ODE-era object layouts (§6.1): a rigid
body is ~412 B of state, a geom 116 B, a joint ~256 B, a contact 148 B;
cloth vertices stream 48 B (position + previous position) each.
"""

from __future__ import annotations

from .report import ISLAND_SWEEPS, PHASES, TouchGroup

BLOCK = 64

RECORD_BYTES = {
    "body": 412,
    "geom": 116,
    "joint": 256,
    "contact": 148,
    "row": 148,
    "clothvert": 48,
    "endpoint": 16,
}

# Disjoint address regions per record kind, far enough apart that no
# realistic scene overlaps them.
REGION_BASE = {
    "body": 1 << 28,
    "geom": 2 << 28,
    "joint": 3 << 28,
    "contact": 4 << 28,
    "row": 5 << 28,
    "clothvert": 6 << 28,
    "endpoint": 7 << 28,
}


def group_blocks(group):
    """Ordered 64B block addresses of one TouchGroup's single sweep.

    Consecutive duplicate blocks (several small records per line) are
    collapsed — a second touch of the line you just touched never
    changes LRU state or miss counts.
    """
    size = RECORD_BYTES[group.kind]
    base = REGION_BASE[group.kind]
    out = []
    last = -1
    for rid in group.ids:
        start = base + rid * size
        for addr in range(start - start % BLOCK, start + size, BLOCK):
            block = addr // BLOCK
            if block != last:
                out.append(block)
                last = block
    return out


def _island_groups(phase, record):
    """The ``row`` / ``body`` sweep pair of every island of a compact
    ``ISLAND_SWEEPS`` record; islands' rows are laid out back to back."""
    row_base = 0
    for rows, body_uids in zip(*record.ids):
        yield phase, TouchGroup("row", range(row_base, row_base + rows),
                                record.repeat, record.writes)
        yield phase, TouchGroup("body", body_uids, record.repeat,
                                record.writes)
        row_base += rows


def step_groups(report, phases=None):
    """Yield ``(phase, TouchGroup)`` in pipeline order over sub-steps.

    Every consumer reads the trace through here: an ``ISLAND_SWEEPS``
    record comes out expanded, so every group yielded names a memory
    region — this is the trace format every cache model sees.
    """
    wanted = PHASES if phases is None else tuple(phases)
    order = {p: i for i, p in enumerate(PHASES)}
    for step in report.step_touches:
        for phase, group in sorted(step, key=lambda pg: order[pg[0]]):
            if phase not in wanted:
                continue
            if group.kind == ISLAND_SWEEPS:
                yield from _island_groups(phase, group)
            else:
                yield phase, group


def expand(report, phases=None):
    """Yield ``(block, phase, writes)`` for every access, repeats
    included. Prefer :func:`step_groups` plus group-aware consumers for
    anything iteration-heavy."""
    for phase, group in step_groups(report, phases):
        blocks = group_blocks(group)
        for _ in range(group.repeat):
            for block in blocks:
                yield block, phase, group.writes
