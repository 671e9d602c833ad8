"""Extension experiments beyond the paper's figures.

The §8.3 discrete-accelerator model, the dispatch-protocol overhead
estimate, a next-line-prefetch study on the recorded touch traces, the
way-partitioning model validation, and the energy / NoC / SIMD
what-ifs referenced by §7.2 and §8.2.
"""

from __future__ import annotations

from ..arch import model2, waypart
from ..arch.area import PAPER_POOL_CORES
from ..arch.cache import CacheSim
from ..arch.energy import edp as edp_of
from ..arch.energy import frame_energy
from ..arch.interconnect import simulate_noc
from ..profiling import memtrace
from ..profiling.instmix import (
    FG_KERNEL_SHARE,
    KERNEL_FOOTPRINTS,
    KERNEL_MIX,
    float_share,
)
from ..profiling.report import PARALLEL_PHASES, PHASES
from .tables import STUDY_BENCHMARK, format_table

MESSAGE_HEADER_BYTES = 32
BATCH_ITERATIONS = 100
PREFETCH_L2_BYTES = 1024 * 1024
PREFETCH_DEPTH = 4  # lines fetched ahead of each miss


def model2_feasibility(runs):
    """Per-benchmark frame-boundary transfer cost over PCIe (§8.3)."""
    data, rows = {}, []
    for name, run in runs.items():
        stats = run.table4_row()
        objects = int(stats["objects"])
        cloth_vertices = int(stats["cloth_vertices"])
        seconds = model2.transfer_seconds(
            objects, cloth_vertices=cloth_vertices)
        fraction = model2.frame_budget_fraction(
            objects, cloth_vertices=cloth_vertices)
        data[name] = {
            "objects": objects,
            "cloth_vertices": cloth_vertices,
            "seconds": seconds,
            "frame_budget_fraction": fraction,
            "feasible": fraction < 0.05,
        }
        rows.append([name, objects, cloth_vertices,
                     f"{seconds * 1e6:.1f}", f"{fraction * 100:.3f}%"])
    text = format_table(
        ["benchmark", "objects", "cloth verts", "transfer us",
         "frame budget"],
        rows,
        title="Model 2 — frame-boundary PCIe traffic (§8.3)")
    return data, text


def protocol_overhead(runs):
    """Header overhead of the CG->FG dispatch protocol per kernel."""
    data, rows = {}, []
    for kernel, footprint in KERNEL_FOOTPRINTS.items():
        per100 = (footprint["read_bytes_per_100"]
                  + footprint["write_bytes_per_100"])
        per_iter = per100 / 100.0
        single = MESSAGE_HEADER_BYTES / (MESSAGE_HEADER_BYTES
                                         + per_iter)
        batched = MESSAGE_HEADER_BYTES / (MESSAGE_HEADER_BYTES
                                          + per100)
        data[kernel] = {
            "payload_bytes_per_iteration": per_iter,
            "overhead_single": single,
            "overhead_batched": batched,
        }
        rows.append([kernel, f"{per_iter:.1f}",
                     f"{single * 100:.0f}%", f"{batched * 100:.1f}%"])
    text = format_table(
        ["kernel", "payload B/iter", "per-iter dispatch",
         f"batched x{BATCH_ITERATIONS}"],
        rows,
        title="Dispatch protocol overhead (32B header)")
    return data, text


def prefetch_coverage(report):
    """phase -> ``(misses, misses with prefetch, coverage)``: the
    phase's recorded touch trace replayed through an exact 1MB
    :class:`~repro.arch.cache.CacheSim` without and with a
    next-:data:`PREFETCH_DEPTH`-line prefetcher, and the fraction of
    misses the prefetcher removed.  Phases that touch nothing are
    absent."""
    out = {}
    for phase in PHASES:
        blocks = [b for b, _p, _w in memtrace.expand(report, (phase,))]
        if not blocks:
            continue
        base = CacheSim(PREFETCH_L2_BYTES).run(blocks).misses
        pf = CacheSim(PREFETCH_L2_BYTES,
                      prefetch_depth=PREFETCH_DEPTH).run(blocks).misses
        out[phase] = (base, pf,
                      max(0, base - pf) / base if base else 0.0)
    return out


def prefetch_study(runs):
    """Next-N-line prefetch coverage per phase on the touch trace."""
    measured = prefetch_coverage(runs[STUDY_BENCHMARK].measured)
    data, rows = {}, []
    for phase in PHASES:
        base, pf, coverage = measured.get(phase, (0, 0, 0.0))
        data[phase] = {"coverage": coverage, "misses": base}
        if phase in measured:
            rows.append([phase, base, pf, f"{coverage * 100:.0f}%"])
    text = format_table(
        ["phase", "misses", f"misses (+{PREFETCH_DEPTH}-line pf)",
         "coverage"],
        rows,
        title=f"Next-{PREFETCH_DEPTH}-line prefetch coverage "
              f"({STUDY_BENCHMARK})")
    return data, text


def waypart_validation(runs):
    """Exact way-partitioned sim vs the stack-distance model."""
    report = runs[STUDY_BENCHMARK].measured
    data = waypart.validate(report)
    rows = [
        [phase, int(d["exact"]), int(d["model"]),
         f"{d['relative_error'] * 100:.1f}%"]
        for phase, d in data.items()
    ]
    text = format_table(
        ["phase", "exact misses", "model misses", "rel err"], rows,
        title=f"Way-partitioning model validation ({STUDY_BENCHMARK})")
    return data, text


def energy_comparison(runs):
    """Per-design FG pool energy for the kernels' share of a frame."""
    insts = 0.0
    for run in runs.values():
        per_phase = run.measured.phase_instructions()
        for phase in PARALLEL_PHASES:
            insts += FG_KERNEL_SHARE[phase] * per_phase[phase]
    insts /= max(1, len(runs))
    frame_s = 1.0 / 30.0
    data, rows = {}, []
    for design in ("desktop", "console", "shader"):
        cores = PAPER_POOL_CORES[design]
        e = frame_energy(design, cores, insts, frame_s)
        e["edp"] = edp_of(design, cores, insts, frame_s)
        data[design] = e
        rows.append([design, cores, f"{e['dynamic_j'] * 1e3:.2f}",
                     f"{e['leakage_j'] * 1e3:.2f}",
                     f"{e['total_j'] * 1e3:.2f}",
                     f"{e['edp'] * 1e3:.3f}"])
    text = format_table(
        ["design", "cores", "dynamic mJ", "leakage mJ", "total mJ",
         "EDP mJ*s"],
        rows,
        title="FG pool energy per frame (mean benchmark)")
    return data, text


def noc_sensitivity():
    """Mesh vs torus FG-pool NoC under uniform and hotspot traffic."""
    data, rows = {}, []
    for topo in ("mesh", "torus"):
        uniform = simulate_noc(topo)
        hotspot = simulate_noc(topo, hotspot=True)
        slowdown = (hotspot["avg_latency"] / uniform["avg_latency"]
                    if uniform["avg_latency"] else 0.0)
        data[topo] = {
            "avg_latency": uniform["avg_latency"],
            "max_latency": uniform["max_latency"],
            "hotspot_latency": hotspot["avg_latency"],
            "hotspot_slowdown": slowdown,
        }
        rows.append([topo, f"{uniform['avg_latency']:.1f}",
                     uniform["max_latency"],
                     f"{hotspot['avg_latency']:.1f}",
                     f"{slowdown:.2f}x"])
    text = format_table(
        ["topology", "avg latency", "max", "hotspot avg", "slowdown"],
        rows,
        title="FG-pool NoC sensitivity (8x8, deterministic traffic)")
    return data, text


SIMD_WIDTH = 4


def simd_ablation():
    """Amdahl estimate of a 4-wide FP SIMD unit per kernel (§8.2)."""
    data, rows = {}, []
    for kernel, mix in KERNEL_MIX.items():
        fp = float_share(mix)
        # Branchy kernels vectorize poorly: divergence wastes lanes.
        efficiency = max(0.25, 1.0 - 4.0 * mix["branch"])
        eff_width = 1.0 + (SIMD_WIDTH - 1.0) * efficiency
        speedup = 1.0 / (1.0 - fp + fp / eff_width)
        data[kernel] = {
            "float_share": fp,
            "effective_width": eff_width,
            "speedup": speedup,
        }
        rows.append([kernel, f"{fp * 100:.0f}%",
                     f"{eff_width:.1f}", f"{speedup:.2f}x"])
    text = format_table(
        ["kernel", "FP share", "eff. SIMD width", "speedup"], rows,
        title=f"{SIMD_WIDTH}-wide FP SIMD ablation")
    return data, text
