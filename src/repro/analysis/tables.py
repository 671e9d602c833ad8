"""Table rendering + the paper's Table 3/4 reference numbers."""

from __future__ import annotations

__all__ = [
    "PAPER_TABLE3_MINST",
    "PAPER_TABLE4",
    "format_table",
    "table3",
    "table4",
]

# Table 3: measured dynamic instructions per frame (millions) on the
# paper's full-scale benchmark scenes.
PAPER_TABLE3_MINST = {
    "periodic": 34,
    "ragdoll": 36,
    "continuous": 47,
    "breakable": 256,
    "deformable": 409,
    "explosions": 547,
    "highspeed": 518,
    "mix": 829,
}

# Table 4: scene statistics at full scale.
PAPER_TABLE4 = {
    "periodic": {"object_pairs": 2633, "islands": 99, "objects": 480,
                 "cloth_vertices": 0},
    "ragdoll": {"object_pairs": 2064, "islands": 30, "objects": 480,
                "cloth_vertices": 0},
    "continuous": {"object_pairs": 3182, "islands": 37, "objects": 650,
                   "cloth_vertices": 0},
    "breakable": {"object_pairs": 11715, "islands": 97, "objects": 1608,
                  "cloth_vertices": 0},
    "deformable": {"object_pairs": 7871, "islands": 89, "objects": 480,
                   "cloth_vertices": 2000},
    "explosions": {"object_pairs": 21986, "islands": 58,
                   "objects": 3459, "cloth_vertices": 0},
    "highspeed": {"object_pairs": 21041, "islands": 12, "objects": 3309,
                  "cloth_vertices": 0},
    "mix": {"object_pairs": 16367, "islands": 28, "objects": 1608,
            "cloth_vertices": 2625},
}

# Render order: the paper's benchmark numbering.
BENCH_ORDER = (
    "periodic", "ragdoll", "continuous", "breakable",
    "deformable", "explosions", "highspeed", "mix",
)
#: The benchmark that the one-benchmark studies read: Fig. 6(b),
#: Fig. 10(b), prefetch coverage and the way-partitioning check.
STUDY_BENCHMARK = "mix"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def format_table(headers, rows, title=None) -> str:
    """Plain-text table: left-aligned, two-space gutters, dashed
    underline (the format the reference ``results/`` files use)."""
    cells = [[_cell(c) for c in row] for row in rows]
    widths = [
        max(len(_cell(h)),
            max((len(r[i]) for r in cells), default=0))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(
        _cell(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(
            c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _ordered(runs):
    return [runs[name] for name in BENCH_ORDER if name in runs] + [
        run for name, run in runs.items() if name not in BENCH_ORDER
    ]


def table3(runs):
    """Instructions per frame vs the paper's Table 3.

    Returns ``(data, text)``: ``data`` maps each benchmark to its
    modeled instructions per frame.
    """
    data = {name: run.total_instructions() for name, run in runs.items()}
    rows = []
    for name, inst in sorted(data.items(), key=lambda kv: kv[1]):
        rows.append([
            name,
            f"{inst / 1e6:.1f}",
            PAPER_TABLE3_MINST.get(name, 0),
            f"{runs[name].scale:g}",
        ])
    return data, format_table(
        ["benchmark", "measured Minst/frame", "paper Minst/frame",
         "scale"],
        rows,
        title="Table 3 — instructions per frame",
    )


def table4(runs):
    """Scene statistics vs the paper's Table 4.

    Returns ``(data, text)``: ``data`` maps each benchmark to its
    ``table4_row()``.
    """
    data = {}
    rows = []
    for run in _ordered(runs):
        stats = data[run.name] = run.table4_row()
        paper = PAPER_TABLE4.get(run.name, {})
        rows.append([
            run.name,
            int(round(stats["object_pairs"])),
            paper.get("object_pairs", 0),
            int(round(stats["islands"])),
            paper.get("islands", 0),
            stats["objects"],
            paper.get("objects", 0),
            stats["cloth_vertices"],
            paper.get("cloth_vertices", 0),
        ])
    return data, format_table(
        ["benchmark", "pairs", "paper", "islands", "paper",
         "dyn objs", "paper", "cloth verts", "paper"],
        rows,
        title="Table 4 — benchmark specs",
    )
