"""The paper's figures and tables as tier-1 invariants.

One regeneration through :func:`repro.analysis.__main__.regenerate` —
the function ``python -m repro.analysis`` calls — at the committed
setting (scale 0.03, 2 frames, seed 0; the session-wide ``regen``
fixture of ``tests/conftest.py``), then (a) every rendered table
is pinned byte for byte to ``results/<name>.txt`` and (b) each figure's
qualitative *shape* (orderings, plateaus, crossovers) is asserted on
the driver's data.  The shapes are scale-invariant; the pin is not.
"""

import math
import os

import pytest

from repro.analysis.__main__ import EXPERIMENTS
from repro.analysis.tables import PAPER_TABLE4
from repro.arch.area import area_mm2, fg_pool_area
from repro.profiling.report import PARALLEL_PHASES, PHASES
from repro.profiling.tasks import phase_cg_speedup

RESULTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


@pytest.fixture(scope="module")
def runs(regen):
    return regen[0]


@pytest.fixture(scope="module")
def data(regen):
    return {name: table[0] for name, table in regen[1].items()}


# ---------------------------------------------------------------------------
# the pin


def test_results_dir_holds_exactly_the_experiments():
    assert sorted(os.listdir(RESULTS)) \
        == sorted(f"{name}.txt" for name in EXPERIMENTS)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_table_matches_committed(regen, name):
    with open(os.path.join(RESULTS, f"{name}.txt"),
              encoding="utf-8") as fh:
        committed = fh.read()
    assert regen[1][name][1] + "\n" == committed, (
        f"{name} drifted from results/{name}.txt; if the model was "
        f"meant to move, regenerate with: "
        f"PYTHONPATH=src python -m repro.analysis")


# ---------------------------------------------------------------------------
# Tables 3 and 4


def test_table3_instructions_per_frame(data):
    # The heavy benchmarks must dominate the light ones, as in the
    # paper's ordering (mix is the heaviest; periodic/ragdoll/
    # continuous are the light third).
    inst = data["table3"]
    light = max(inst["periodic"], inst["ragdoll"], inst["continuous"])
    assert inst["mix"] == max(inst.values())
    assert inst["mix"] > 2.5 * light
    for heavy in ("breakable", "explosions", "highspeed", "deformable"):
        assert inst[heavy] > light * 0.9


def test_table4_scene_statistics(data):
    stats = data["table4"]
    # Paper-shape checks that survive scaling:
    # the high-object benchmarks have the most pairs ...
    assert stats["mix"]["object_pairs"] > stats["ragdoll"]["object_pairs"]
    # ... deformable and mix are the only cloth benchmarks ...
    for name in PAPER_TABLE4:
        has_cloth = PAPER_TABLE4[name]["cloth_vertices"] > 0
        assert (stats[name]["cloth_vertices"] > 0) == has_cloth
    # ... and only breakable/mix carry prefractured debris.
    assert stats["breakable"]["prefractured"] > 0
    assert stats["mix"]["prefractured"] > 0
    assert stats["explosions"]["prefractured"] == 0


# ---------------------------------------------------------------------------
# Figure 2 — single-core execution and serial-phase L2 scaling


def test_fig2a_breakdown(data):
    data = data["fig2a"]
    # Every benchmark spends most time in parallel phases; serial
    # phases are a minority (avg 9%) but non-zero everywhere.
    for phases in data.values():
        total = sum(phases.values())
        serial = phases["broadphase"] + phases["island_creation"]
        assert 0 < serial < 0.5 * total
    # Deformable is dominated by cloth among its phases.
    assert data["deformable"]["cloth"] == max(
        data["deformable"][p] for p in PHASES)
    # Mix is the most expensive benchmark end to end.
    totals = {n: sum(p.values()) for n, p in data.items()}
    assert totals["mix"] == max(totals.values())


def _assert_monotone(curves):
    """Time never grows with L2 capacity."""
    for name, curve in curves.items():
        times = [curve[s] for s in sorted(curve)]
        for a, b in zip(times, times[1:]):
            assert b <= a + 1e-12, name


def _sensitivity(curve):
    lo, hi = curve[min(curve)], curve[max(curve)]
    return (lo - hi) / lo if lo > 0 else 0.0


def test_fig2b_serial_l2_scaling(data):
    _assert_monotone(data["fig2b"])
    for curve in data["fig2b"].values():
        times = [curve[s] for s in sorted(curve)]
        # The gains saturate: the last doubling (16->32MB) buys almost
        # nothing (the paper's "realistic 32MB" plateau).
        if times[0] > 0:
            assert times[-1] >= times[-2] * 0.98 - 1e-9


# ---------------------------------------------------------------------------
# Figures 3-5 — per-phase dedicated-L2 scaling, CG-core scaling


def test_fig3a_broadphase_dedicated(data):
    _assert_monotone(data["fig3a"])


def test_fig3b_narrowphase_dedicated(data):
    data = data["fig3b"]
    _assert_monotone(data)
    # The pair-heavy benchmarks (explosions, highspeed) are the most
    # L2-sensitive in narrowphase.
    heavy = max(_sensitivity(data[n])
                for n in ("explosions", "highspeed", "mix"))
    assert heavy >= _sensitivity(data["ragdoll"]) - 1e-9


def test_fig4a_island_creation_dedicated(data):
    _assert_monotone(data["fig4a"])


def test_fig4b_island_processing_dedicated(data):
    _assert_monotone(data["fig4b"])
    # Island Processing is relatively insensitive to L2 size — the
    # solver re-sweeps a compact working set every iteration.
    for name, curve in data["fig4b"].items():
        assert _sensitivity(curve) < 0.5, name


def test_fig5a_cloth_dedicated(data):
    # Only the cloth benchmarks appear.
    assert set(data["fig5a"]) == {"deformable", "mix"}
    # Cloth is insensitive to L2 scaling (vertex arrays stream).
    for name, curve in data["fig5a"].items():
        assert _sensitivity(curve) < 0.4, name


def test_fig5b_cg_core_scaling(data):
    data = data["fig5b"]
    for per_cores in data.values():
        # More cores never hurt end-to-end at 1->2->4 ...
        assert per_cores[2] <= per_cores[1] * 1.02
        assert per_cores[4] <= per_cores[2] * 1.05
    # ... but returns diminish (the paper's 53% then 29% improvements):
    # speedup from 2->4 is smaller than from 1->2 on the aggregate.
    total = {c: sum(d[c] for d in data.values()) for c in (1, 2, 4)}
    assert total[1] / total[2] > total[2] / total[4]


# ---------------------------------------------------------------------------
# Figures 6 and 7 — four cores, the thread-scaling miss blowup, CG limits


def test_fig6a_four_core_breakdown(data):
    # Against the 1-core/1MB baseline, the partitioned 12MB 4-core
    # config improves every benchmark's frame time (the paper's ~3x).
    for name, phases in data["fig6a"].items():
        assert sum(phases.values()) < sum(data["fig2a"][name].values())


def test_fig6b_miss_blowup(data):
    data = data["fig6b"]
    # Scaling 4 -> 8 threads explodes L2 misses, mostly kernel accesses
    # from the per-thread OS memory jump (850KB -> 5MB).
    total = {t: v["user"] + v["kernel"] for t, v in data.items()}
    assert total[8] > total[4]
    assert data[8]["kernel"] > data[4]["kernel"] * 2
    # Kernel misses are the majority of the 8-thread increase.
    assert data[8]["kernel"] - data[4]["kernel"] \
        > 0.5 * (total[8] - total[4])


def test_fig7a_cg_limit(data, runs):
    # Even with unlimited ideal cores, Deformable and Mix keep a large
    # residual in Island Processing + Cloth because the largest
    # island/cloth bounds CG scaling.
    residual = {n: d["island_processing"] + d["cloth"]
                for n, d in data["fig7a"].items()}
    assert residual["mix"] > residual["ragdoll"]
    assert residual["deformable"] > residual["continuous"]
    # The bound really is the largest CG unit: ideal speedup of cloth on
    # deformable is tiny (one 625-vertex drape dominates).
    measured = runs["deformable"].measured
    biggest_share = max(
        max(ts) / sum(ts)
        for ts in measured.step_tasks["cloth"] if ts)
    assert phase_cg_speedup(measured, "cloth", 10_000) \
        <= 1.0 / biggest_share + 1e-6


def _fp_share(mix):
    return mix["float_add"] + mix["float_mult"]


def test_fig7b_phase_mix(data):
    data = data["fig7b"]
    # Serial phases + narrowphase integer dominant with branches;
    # island processing and cloth FP dominant.
    for phase in ("broadphase", "island_creation", "narrowphase"):
        assert _fp_share(data[phase]) < 0.2
        assert data[phase]["branch"] >= 0.1
    for phase in ("island_processing", "cloth"):
        assert _fp_share(data[phase]) > 0.25


# ---------------------------------------------------------------------------
# Figure 9 + §8.1.2 — FG computation characterization


def test_fig9a_cg_fg_decomposition(data):
    one, four = data["fig9a"]["1P"], data["fig9a"]["4P"]
    # Serial time barely changes with cores, CG-parallel and FG
    # components shrink going 1P -> 4P.
    assert four["serial"] <= one["serial"] * 1.1
    assert four["fg"] < one["fg"]
    assert four["cg_parallel"] <= one["cg_parallel"] * 1.1
    # FG-eligible work dominates the parallel phases.
    assert one["fg"] > one["cg_parallel"]


def test_fig9b_kernel_mix(data):
    data = data["fig9b"]
    # Fig 9(b): narrowphase ~8% branches, few FP adds/mults; island and
    # cloth carry ~30% FP data-flow.
    assert abs(data["narrowphase"]["branch"] - 0.08) < 0.03
    assert _fp_share(data["narrowphase"]) < 0.10
    for kernel in ("island", "cloth"):
        assert _fp_share(data[kernel]) > 0.25


def test_kernel_footprints(data):
    data = data["kernel_footprints"]
    # §8.1.2: largest kernel ~1.1KB of 32-bit code; all three fit in
    # 2.7KB.
    assert data["narrowphase"]["code_bytes_32bit"] <= 1.2 * 1024
    assert data["all_kernels_code_bytes_32bit"] <= 2.8 * 1024
    assert data["narrowphase"]["read_bytes_per_100"] == 1668


# ---------------------------------------------------------------------------
# Figure 10 — FG core IPC and the number of cores needed for 30 FPS


def test_fig10a_ipc(data):
    data = data["fig10a"]
    # Island has bursty ILP (limit > 3, scales with window);
    # narrowphase is branch-bound (limit gains little over desktop);
    # shader is the slowest everywhere.
    assert data["limit"]["island"] > 3.0
    assert data["limit"]["island"] > data["desktop"]["island"]
    assert data["desktop"]["island"] > data["console"]["island"]
    assert data["limit"]["narrowphase"] \
        < data["desktop"]["narrowphase"] * 1.25
    for kernel in ("narrowphase", "island", "cloth"):
        assert data["shader"][kernel] == min(
            data[d][kernel] for d in data)


def test_fig10b_cores_required(data):
    data = data["fig10b"]
    # Simpler cores need more copies (desktop < console < shader at
    # every budget), and tighter budgets need more cores.
    for budget in (1.0, 0.25, 0.32):
        assert (data["desktop"][budget] <= data["console"][budget]
                <= data["shader"][budget])
    for design in data:
        assert data[design][0.125] >= data[design][1.0]
    # Area ordering reverses the core-count ordering: the shader pool is
    # the cheapest way to buy the 30 FPS throughput (paper §8.2.1).
    areas = {
        d: fg_pool_area(d if d != "limit" else "desktop", data[d][0.32])
        for d in data}
    assert areas["shader"] == min(areas.values())


# ---------------------------------------------------------------------------
# Table 7, Figure 11, §8.2.2 — interconnect latency hiding; §8.2.1 area


def test_table7_tasks_to_hide(data):
    # Hiding an off-chip link needs (weakly) more parallel tasks than
    # the on-chip mesh, and PCIe needs the most (or is impossible) for
    # every design and kernel.
    for links in data["table7"].values():
        for phase in PARALLEL_PHASES:
            assert links["onchip"][phase] <= links["htx"][phase] \
                <= links["pcie"][phase]
        # On-chip hiding is always feasible.
        assert all(not math.isinf(links["onchip"][p])
                   for p in PARALLEL_PHASES)


def test_fig11_available_tasks(data):
    data = data["fig11"]
    # Narrowphase availability tracks object-pair counts: the pair-heavy
    # benchmarks expose the most FG tasks.
    assert data["mix"]["narrowphase"] > data["ragdoll"]["narrowphase"]
    # Only the cloth benchmarks expose cloth tasks.
    assert data["deformable"]["cloth"] > 0
    assert data["mix"]["cloth"] > 0
    assert data["highspeed"]["cloth"] == 0


def test_offchip_filtering(data):
    data = data["offchip"]
    # §8.2.2: moving off-chip can only reduce the share of FG work whose
    # communication is hidden; PCIe is the worst.
    for phase in PARALLEL_PHASES:
        assert data["htx"][phase] <= data["onchip"][phase] + 1e-9
        assert data["pcie"][phase] <= data["htx"][phase] + 1e-9


def test_area_and_static_overhead(data):
    data = data["area"]
    # §8.2.1 core-pool areas (our constants are derived from these
    # totals, so they must reproduce exactly at the paper's counts).
    assert abs(area_mm2("desktop", 30) - 1388) < 15
    assert abs(area_mm2("console", 43) - 926) < 10
    assert abs(area_mm2("shader", 150) - 591) < 6
    # Pools ordered by total area: shader cheapest despite most cores.
    assert data["shader"] < data["console"] < data["desktop"]
    # Static mapping wastes a significant fraction of FG cores under a
    # skewed load (paper: +34% for shaders).
    assert data["static_mapping_overhead"] >= 0.2


# ---------------------------------------------------------------------------
# Extensions: §8.3 Model 2, §7.3 protocol, §6.2 prefetch, way
# partitioning, energy, §7.2 NoC, §8.2 SIMD


def test_model2_discrete_accelerator(data):
    # Every benchmark's frame-boundary traffic is a trivial share of the
    # 33ms frame — the paper's argument for PhysX-style accelerators.
    for name, d in data["model2"].items():
        assert d["feasible"], name
        assert d["frame_budget_fraction"] < 0.05


def test_protocol_overhead(data):
    for d in data["protocol"].values():
        # Batching 100 iterations keeps header overhead small ...
        assert d["overhead_batched"] < 0.15
        # ... while per-iteration dispatch would drown in headers.
        assert d["overhead_single"] > 0.3


def test_prefetch_future_work(data):
    data = data["prefetch"]
    # The solver's linear island sweeps prefetch nearly perfectly; the
    # pointer-heavy broadphase benefits least.
    assert data["island_processing"]["coverage"] > 0.6
    assert data["broadphase"]["coverage"] \
        <= data["island_processing"]["coverage"]


def test_waypart_model_validation(data):
    # The stack-distance partition model must closely track the exact
    # way-partitioned simulator on the serial phases.
    for phase, d in data["waypart"].items():
        assert d["relative_error"] < 0.15, phase


def test_energy_comparison(data):
    data = data["energy"]
    # The shader pool's area win (§8.2.1) extends to energy and EDP.
    assert data["shader"]["dynamic_j"] == min(
        d["dynamic_j"] for d in data.values())
    assert data["shader"]["edp"] == min(d["edp"] for d in data.values())
    assert data["desktop"]["total_j"] > data["console"]["total_j"]


def test_noc_topology(data):
    data = data["noc"]
    # §7.2: the torus is slightly better in latency; both contend under
    # a hotspot.
    assert data["torus"]["avg_latency"] <= data["mesh"]["avg_latency"]
    assert data["mesh"]["hotspot_slowdown"] > 1.2


def test_simd_remark(data):
    data = data["simd"]
    # §8.2: island (bursty FP) is the SIMD candidate; branchy
    # narrowphase is not.
    assert data["island"]["speedup"] > 1.0
    assert data["island"]["speedup"] >= data["narrowphase"]["speedup"]


# ---------------------------------------------------------------------------
# Single-mechanism ablation scenes (repro.ablation.studies): each
# mechanism is load-bearing.


def test_ablation_warm_starting(data):
    # Warm starting must not hurt at the lowest iteration count.
    _iters, cold, warm = data["ablation_warmstart"][0]
    assert float(warm) <= float(cold) + 1e-6


def test_ablation_auto_sleep(data):
    (_, awake), (_, asleep) = data["ablation_autosleep"]
    assert asleep < awake * 0.5  # sleeping islands skip the solver


def test_ablation_ccd(data):
    rows = data["ablation_ccd"]
    assert all(r[2] == "stopped" for r in rows)
    assert any(r[1] == "TUNNELED" for r in rows)  # CCD is load-bearing


def test_ablation_broadphase_strategies(data):
    # broadphase_study raises AssertionError itself if SAP or the
    # spatial hash ever disagrees with the brute-force oracle.
    brute, sap, _hash = data["ablation_broadphase"]
    assert sap[1] < brute[1] * 0.5  # SAP prunes most pair tests
