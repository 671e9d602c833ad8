"""Unit tests for the architecture models against hand-computed traces."""

import json
import math
import os

import pytest

from repro.arch import (
    CacheSim,
    DESIGNS,
    HTX,
    INTERCONNECTS,
    L2Partitioning,
    ONCHIP_MESH,
    PCIE,
    ParallaxConfig,
    ParallaxMachine,
    StackDistanceProfile,
    StaticPredictor,
    WayPartitionedCache,
    YagsPredictor,
    simulate_noc,
)
from repro.arch import (arbiter, area, interconnect, model2, osmodel,
                        waypart)
from repro.arch.kernels import (
    KERNEL_TRACE_PARAMS,
    PHASE_TRACE_PARAMS,
    Instr,
    kernel_trace,
    phase_trace,
)
from repro.arch.pipeline import simulate_ipc
from repro.profiling import memtrace
from repro.profiling.report import (ISLAND_SWEEPS, PHASES, FrameReport,
                                    TouchGroup)

MB = 1024 * 1024


# -- cache -------------------------------------------------------------

def test_cache_direct_mapped_known_stream():
    # capacity 128B, 1 way, 64B lines -> 2 direct-mapped sets.
    # Blocks 0 and 2 conflict in set 0; block 1 lives in set 1.
    sim = CacheSim(128, ways=1).run([0, 1, 0, 2, 0])
    # miss(0), miss(1), hit(0), miss(2 evicts 0), miss(0)
    assert sim.hits == 1
    assert sim.misses == 4


def test_cache_lru_within_set():
    # One fully-associative set with 2 ways.
    sim = CacheSim(128, ways=2).run([0, 1, 0, 2, 1])
    # miss(0), miss(1), hit(0), miss(2 evicts LRU=1), miss(1)
    assert sim.hits == 1
    assert sim.misses == 4


def test_cache_streaming_prefetch():
    sim = CacheSim(64 * MB, ways=8, prefetch_depth=4)
    sim.run(range(100))
    # A linear stream is almost fully covered after the first miss.
    assert sim.misses < 100 * 0.3
    assert sim.prefetch_hits > 100 * 0.7


def _touched_report():
    report = FrameReport()
    report.touch("broadphase", "geom", range(8))
    report.touch("narrowphase", "geom", range(8))
    report.touch("island_processing", "body", range(4), repeat=3)
    return report


def test_profile_is_shared_per_report_and_phase_set():
    report = _touched_report()
    everything = StackDistanceProfile.from_report(report)
    assert StackDistanceProfile.from_report(report, PHASES) is everything
    assert StackDistanceProfile.from_report(
        report, tuple(reversed(PHASES))) is everything
    narrow = StackDistanceProfile.from_report(report, ("narrowphase",))
    assert narrow is not everything
    assert narrow.labels() == ["narrowphase"]
    assert StackDistanceProfile.from_report(
        _touched_report()) is not everything


def test_profile_sees_touches_recorded_after_profiling():
    report = _touched_report()
    machine = ParallaxMachine()
    before = StackDistanceProfile.from_report(report)
    cycles = machine.phase_cycles(report, "cloth")
    report.touch("cloth", "clothvert", range(64))
    after = StackDistanceProfile.from_report(report)
    assert after is not before
    assert before.total_accesses(("cloth",)) == 0
    assert after.total_accesses(("cloth",)) == 48
    assert machine.phase_cycles(report, "cloth") > cycles
    # A late compact island record is one more entry, seen expanded.
    report.touch("island_processing", ISLAND_SWEEPS, ([2], [[7, 8]]),
                 repeat=2, writes=True)
    late = StackDistanceProfile.from_report(report)
    assert late is not after
    assert (late.total_accesses(("island_processing",))
            - after.total_accesses(("island_processing",))) == 2 * (
        len(memtrace.group_blocks(TouchGroup("row", range(2))))
        + len(memtrace.group_blocks(TouchGroup("body", [7, 8]))))


def test_compact_island_record_is_the_per_island_trace():
    """``memtrace.step_groups`` reads one ``ISLAND_SWEEPS`` entry as the
    ``row`` / ``body`` touch pair of every island, zero-row islands
    included, so no cache model can tell how the sweeps were stored."""
    islands = [(6, [3, 4]), (0, [9]), (2, [5, 6, 7])]
    compact, per_island = FrameReport(), FrameReport()
    for report in (compact, per_island):
        report.steps = 1
        report.touch("narrowphase", "body", [3, 4, 5])
    compact.touch("island_processing", ISLAND_SWEEPS,
                  tuple(zip(*islands)), repeat=5, writes=True)
    row_base = 0
    for rows, uids in islands:
        per_island.touch("island_processing", "row",
                         range(row_base, row_base + rows), 5, True)
        per_island.touch("island_processing", "body", uids, 5, True)
        row_base += rows
    for report in (compact, per_island):
        report.touch("cloth", "clothvert", range(16), repeat=2)
        report.steps = 2
        report.touch("island_processing", "body", [4])

    def groups(report):
        return [(phase, g.kind, g.ids, g.repeat, g.writes)
                for phase, g in memtrace.step_groups(report)]

    assert len(compact.step_touches[0]) == 3
    assert len(groups(compact)) == 9
    assert groups(compact) == groups(per_island)
    assert list(memtrace.expand(compact)) == list(
        memtrace.expand(per_island))
    a = StackDistanceProfile.from_report(compact)
    b = StackDistanceProfile.from_report(per_island)
    assert (a.histograms, a.cold, a.accesses) == (
        b.histograms, b.cold, b.accesses)
    # Unexpanded, the record names no memory region.
    with pytest.raises(KeyError):
        memtrace.group_blocks(compact.step_touches[0][1][1])


def test_waypart_strict_allocation(monkeypatch):
    # 2 owners x 1 way, 1 set each: owners never evict each other.
    monkeypatch.setattr(waypart, "WAYS", 2)
    cache = WayPartitionedCache(128, allocation={"a": 1, "b": 1})
    cache.access(0, "a")
    cache.access(0, "b")      # miss: b cannot see a's ways
    cache.access(0, "a")      # hit in a's partition
    assert cache.hits == {"a": 1, "b": 0}
    assert cache.misses == {"a": 1, "b": 1}


# -- branch prediction -------------------------------------------------

def test_yags_learns_biased_branch():
    p = YagsPredictor()
    for i in range(1000):
        p.update(0x40, i % 10 != 0)  # 90% taken
    assert p.accuracy() > 0.8


def test_yags_learns_alternating_pattern():
    # Global history disambiguates a strict T/NT alternation.
    p = YagsPredictor()
    for i in range(2000):
        p.update(0x80, i % 2 == 0)
    assert p.accuracy() > 0.7


def test_static_predictor_counts_taken_branches():
    p = StaticPredictor()
    for _ in range(10):
        p.update(0x10, True)
    assert not p.predict(0x10)
    assert p.mispredicts == 10


# -- pipeline ----------------------------------------------------------

def _chain(n, op="int"):
    return [Instr(op, (i - 1,) if i else (), 0, False)
            for i in range(n)]


def _independent(n, op="int"):
    return [Instr(op, (), 0, False) for i in range(n)]


def test_ipc_dependent_chain_is_serial():
    ipc = simulate_ipc(_chain(64), DESIGNS["desktop"])
    assert 0.8 <= ipc <= 1.05


def test_ipc_independent_ops_fill_the_width():
    ipc = simulate_ipc(_independent(256), DESIGNS["desktop"])
    assert ipc > 3.0


def test_ipc_fdiv_chain_pays_full_latency():
    # Dependent 12-cycle divides: ~1/12 IPC.
    ipc = simulate_ipc(_chain(32, op="fdiv"), DESIGNS["desktop"])
    assert ipc < 0.15


def test_ipc_in_order_width_one_cap():
    ipc = simulate_ipc(_independent(256), DESIGNS["shader"])
    assert 0.5 < ipc <= 1.0


def test_ipc_empty_trace_detail_has_the_full_shape():
    assert simulate_ipc([], DESIGNS["desktop"]) == 0.0
    empty = simulate_ipc([], DESIGNS["desktop"], detail=True)
    full = simulate_ipc(_chain(4), DESIGNS["desktop"], detail=True)
    assert empty == {"ipc": 0.0, "cycles": 0, "instructions": 0,
                     "mispredicts": 0, "branches": 0, "bp_accuracy": 1.0}
    assert list(empty) == list(full)


PIPELINE_GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures",
    "arch_pipeline_golden.json")


def _pipeline_stats():
    """cycles/mispredicts/branches of every design on every kernel and
    phase trace, at the model's default length and at a short odd one."""
    out = {}
    for n in (3000, 257):
        traces = {f"kernel:{k}": kernel_trace(k, n=n)
                  for k in KERNEL_TRACE_PARAMS}
        traces.update({f"phase:{p}": phase_trace(p, n=n)
                       for p in PHASE_TRACE_PARAMS})
        for design in DESIGNS.values():
            for name, trace in traces.items():
                detail = simulate_ipc(trace, design, detail=True)
                out[f"{design.name}/{name}/{n}"] = {
                    key: detail[key]
                    for key in ("cycles", "mispredicts", "branches")}
    return out


def test_pipeline_matches_golden_cycle_counts(request):
    """The pipeline model is pinned cycle-exact: the fixture was written
    by the scan-the-whole-ROB implementation that preceded the
    index-range one. Regenerate deliberately with
    ``python -m pytest tests/test_arch.py --regen-golden``."""
    stats = _pipeline_stats()
    if request.config.getoption("--regen-golden"):
        with open(PIPELINE_GOLDEN, "w") as fh:
            json.dump(stats, fh, indent=1, sort_keys=True)
            fh.write("\n")
        pytest.skip(f"regenerated {PIPELINE_GOLDEN}")
    with open(PIPELINE_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 64
    assert stats == golden


# -- arbiter -----------------------------------------------------------

def test_arbiter_round_trip_adds_tree_hops():
    assert set(INTERCONNECTS) == {"onchip-mesh", "htx", "pcie"}
    # 2 levels x 4 cycles each way on top of the link round trip.
    assert arbiter.round_trip_cycles(ONCHIP_MESH) == 40 + 16
    assert arbiter.round_trip_cycles(HTX) == 240 + 16
    assert arbiter.round_trip_cycles(PCIE) == 2400 + 16


def test_arbiter_tasks_in_flight_per_link():
    # One core, 56-cycle tasks: on-chip needs 1 + ceil(56/56) = 2.
    assert arbiter.tasks_in_flight_required(1, 56, ONCHIP_MESH) == 2
    # Longer round trips need deeper queues, monotonically per link.
    depths = [arbiter.tasks_in_flight_required(8, 500, link)
              for link in (ONCHIP_MESH, HTX, PCIE)]
    assert depths == sorted(depths)
    assert math.isinf(arbiter.tasks_in_flight_required(4, 0, HTX))


def test_arbiter_bandwidth_feasibility():
    # 1 core, 2000-cycle tasks @2GHz = 1M tasks/s; 100B/task = 100MB/s.
    assert arbiter.bandwidth_feasible(1, 2000, 100, PCIE)
    # 150 cores pulling 1KB every 100 cycles = 3TB/s: nothing fits.
    assert not arbiter.bandwidth_feasible(150, 100, 1000, ONCHIP_MESH)


def test_static_mapping_overhead():
    assert arbiter.static_mapping_overhead([1, 1, 1, 1], 4) == 0.0
    # One dominant island: the thread that drew it bounds the frame.
    skew = arbiter.static_mapping_overhead([8, 1, 1, 1], 4)
    assert skew == pytest.approx(4 * 8 / 11 - 1)


# -- interconnect ------------------------------------------------------

def test_noc_delivers_every_packet(monkeypatch):
    monkeypatch.setattr(interconnect, "NOC_PACKETS", 64)
    out = simulate_noc("mesh")
    assert out["delivered"] == 64
    assert out["avg_latency"] > 0


def test_noc_hotspot_contention(monkeypatch):
    monkeypatch.setattr(interconnect, "NOC_PACKETS", 256)
    uniform = simulate_noc("mesh")
    hot = simulate_noc("mesh", hotspot=True)
    assert hot["avg_latency"] > uniform["avg_latency"]


# -- OS model, area, model2 --------------------------------------------

def test_os_kernel_misses_jump_past_four_threads():
    # 12MB / 4 threads = 3MB slice > 850KB footprint: no re-streaming.
    assert osmodel.kernel_overhead_misses(4, 12 * MB) == 0.0
    # 8 threads: 1.5MB slice < 5MB footprint -> misses appear.
    assert osmodel.kernel_overhead_misses(8, 12 * MB) > 1e6
    assert osmodel.sync_instructions(1) == 0.0
    assert osmodel.sync_instructions(4) > osmodel.sync_instructions(2)


def test_area_pool_ordering():
    # Paper 8.2.1: shader pool is the smallest for its core count.
    pools = {d: area.fg_pool_area(d, area.PAPER_POOL_CORES[d])
             for d in ("desktop", "console", "shader")}
    assert pools["shader"] < pools["console"] < pools["desktop"]


def test_model2_paper_example():
    assert model2.paper_example_seconds() == pytest.approx(6e-5, rel=0.2)


# -- machine API -------------------------------------------------------

def test_l2_partitioning_slices():
    part = L2Partitioning.paper_scheme()
    assert part.total_bytes == 12 * MB
    group, nbytes = part.slice_for("island_creation")
    assert "broadphase" in group and nbytes == 4 * MB
    shared = L2Partitioning.shared(16 * MB)
    group, nbytes = shared.slice_for("cloth")
    assert nbytes == 16 * MB

    ded = L2Partitioning.dedicated("narrowphase", 2 * MB)
    assert ded.slice_for("narrowphase") == (("narrowphase",), 2 * MB)
    rest, _ = ded.slice_for("cloth")
    assert "narrowphase" not in rest


def test_machine_default_config():
    machine = ParallaxMachine()
    assert machine.config.cg_cores == 1
    assert machine.config.l2.total_bytes == MB
    assert ParallaxConfig(cg_cores=4).cg_cores == 4
