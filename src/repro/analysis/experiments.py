"""Figure/table regeneration drivers.

Each ``figNx(runs)`` takes the ``run_all`` dict of simulated benchmarks
and returns ``(data, text)``: a plain data structure with the figure's
numbers plus the rendered table that lands in ``results/``. They model
machines with :class:`repro.arch.ParallaxMachine`; the simulation
itself is not re-run, so a full figure sweep costs seconds on top of
the one benchmark pass.
"""

from __future__ import annotations

from ..arch import arbiter
from ..arch.area import PAPER_POOL_CORES, fg_pool_area
from ..arch.machine import (
    KERNEL_FOR_PHASE,
    L2Partitioning,
    ParallaxConfig,
    ParallaxMachine,
)
from ..arch.pipeline import DESIGNS, kernel_ipc
from ..profiling.instmix import (
    FG_KERNEL_SHARE,
    KERNEL_FOOTPRINTS,
    KERNEL_MIX,
    PHASE_MIX,
)
from ..profiling.report import PARALLEL_PHASES, PHASES, SERIAL_PHASES
from .tables import BENCH_ORDER, STUDY_BENCHMARK, format_table

MB = 1024 * 1024
L2_SWEEP = [1 * MB, 2 * MB, 4 * MB, 8 * MB, 16 * MB, 32 * MB]

FG_DESIGNS = ("desktop", "console", "shader")
ALL_DESIGNS = ("desktop", "console", "shader", "limit")


def _ordered(runs):
    names = [n for n in BENCH_ORDER if n in runs]
    names += [n for n in runs if n not in names]
    return names


def _baseline_machine():
    """The paper's starting point: 1 CG core, 1MB shared L2."""
    return ParallaxMachine(
        ParallaxConfig(cg_cores=1, l2=L2Partitioning.shared(MB)))


def _paper_machine():
    return ParallaxMachine(
        ParallaxConfig(cg_cores=4, l2=L2Partitioning.paper_scheme()))


def _mb(size):
    return f"{size // MB}MB"


# -- Fig 2: single-core execution --------------------------------------

def fig2a(runs):
    machine = _baseline_machine()
    data, rows = {}, []
    for name in _ordered(runs):
        report = runs[name].measured
        data[name] = {
            phase: machine.phase_seconds(report, phase)
            for phase in PHASES
        }
        total = sum(data[name].values())
        fps = 1.0 / total if total > 0 else float("inf")
        rows.append([name]
                    + [f"{data[name][p] * 1e3:.2f}" for p in PHASES]
                    + [f"{total * 1e3:.2f}", f"{fps:.1f}"])
    text = format_table(
        ["benchmark"] + list(PHASES) + ["total ms", "fps"], rows,
        title="Fig 2(a) — per-phase seconds, 1 core + 1MB L2 "
              "(33.3ms = 30 FPS budget)")
    return data, text


def fig2b(runs):
    machine = _baseline_machine()
    data, rows = {}, []
    for name in _ordered(runs):
        report = runs[name].measured
        curve = {}
        for size in L2_SWEEP:
            curve[size] = sum(
                machine.phase_seconds(report, phase, l2_bytes=size)
                for phase in SERIAL_PHASES)
        data[name] = curve
        rows.append([name] + [f"{curve[s] * 1e3:.3f}"
                              for s in L2_SWEEP])
    text = format_table(
        ["benchmark"] + [_mb(s) for s in L2_SWEEP], rows,
        title="Fig 2(b) — serial-phase ms vs shared L2 size")
    return data, text


# -- Figs 3-5: per-phase dedicated L2 ----------------------------------

def _dedicated_sweep(runs, phase, names=None, title=""):
    machine = ParallaxMachine(
        ParallaxConfig(l2=L2Partitioning.dedicated(phase, MB)))
    data, rows = {}, []
    for name in (names if names is not None else _ordered(runs)):
        report = runs[name].measured
        curve = {
            size: machine.phase_seconds(report, phase, l2_bytes=size)
            for size in L2_SWEEP
        }
        data[name] = curve
        rows.append([name] + [f"{curve[s] * 1e3:.3f}"
                              for s in L2_SWEEP])
    text = format_table(
        ["benchmark"] + [_mb(s) for s in L2_SWEEP], rows, title=title)
    return data, text


def fig3a(runs):
    return _dedicated_sweep(
        runs, "broadphase",
        title="Fig 3(a) — broadphase ms vs dedicated L2")


def fig3b(runs):
    return _dedicated_sweep(
        runs, "narrowphase",
        title="Fig 3(b) — narrowphase ms vs dedicated L2")


def fig4a(runs):
    return _dedicated_sweep(
        runs, "island_creation",
        title="Fig 4(a) — island creation ms vs dedicated L2")


def fig4b(runs):
    return _dedicated_sweep(
        runs, "island_processing",
        title="Fig 4(b) — island processing ms vs dedicated L2")


def fig5a(runs):
    names = [n for n in ("deformable", "mix") if n in runs]
    return _dedicated_sweep(
        runs, "cloth", names=names,
        title="Fig 5(a) — cloth ms vs dedicated L2")


def fig5b(runs):
    machine = ParallaxMachine(
        ParallaxConfig(cg_cores=4, l2=L2Partitioning.shared(16 * MB)))
    data, rows = {}, []
    for name in _ordered(runs):
        report = runs[name].measured
        data[name] = {
            cores: machine.frame_seconds(report, threads=cores)
            for cores in (1, 2, 4)
        }
        rows.append([name] + [f"{data[name][c] * 1e3:.2f}"
                              for c in (1, 2, 4)])
    text = format_table(
        ["benchmark", "1 core ms", "2 cores ms", "4 cores ms"], rows,
        title="Fig 5(b) — frame ms vs CG cores (16MB shared L2)")
    return data, text


# -- Fig 6: four-core execution ----------------------------------------

def fig6a(runs):
    machine = _paper_machine()
    data, rows = {}, []
    for name in _ordered(runs):
        report = runs[name].measured
        data[name] = {
            phase: machine.phase_seconds(report, phase, threads=4)
            for phase in PHASES
        }
        total = sum(data[name].values())
        fps = 1.0 / total if total > 0 else float("inf")
        rows.append([name]
                    + [f"{data[name][p] * 1e3:.2f}" for p in PHASES]
                    + [f"{total * 1e3:.2f}", f"{fps:.1f}"])
    text = format_table(
        ["benchmark"] + list(PHASES) + ["total ms", "fps"], rows,
        title="Fig 6(a) — per-phase seconds, 4 cores + 12MB "
              "partitioned L2")
    return data, text


def fig6b(runs):
    machine = _paper_machine()
    report = runs[STUDY_BENCHMARK].measured
    data, rows = {}, []
    for threads in (1, 2, 4, 8):
        data[threads] = machine.l2_miss_breakdown(report, threads)
        d = data[threads]
        rows.append([f"{threads}P", int(d["user"]), int(d["kernel"]),
                     int(d["user"] + d["kernel"])])
    text = format_table(
        ["threads", "user misses", "kernel misses", "total"], rows,
        title=f"Fig 6(b) — L2 misses vs threads ({STUDY_BENCHMARK})")
    return data, text


# -- Fig 7: CG limits --------------------------------------------------

def fig7a(runs):
    machine = _paper_machine()
    data, rows = {}, []
    for name in _ordered(runs):
        report = runs[name].measured
        data[name] = {
            phase: machine.phase_seconds(report, phase, threads=10000)
            for phase in PHASES
        }
        rows.append([name]
                    + [f"{data[name][p] * 1e3:.2f}" for p in PHASES]
                    + [f"{sum(data[name].values()) * 1e3:.2f}"])
    text = format_table(
        ["benchmark"] + list(PHASES) + ["residual ms"], rows,
        title="Fig 7(a) — residual ms with unlimited ideal CG cores")
    return data, text


def fig7b(runs):
    data = {phase: dict(PHASE_MIX[phase]) for phase in PHASES}
    cats = list(next(iter(PHASE_MIX.values())).keys())
    rows = [[phase] + [f"{PHASE_MIX[phase][c]:.2f}" for c in cats]
            for phase in PHASES]
    text = format_table(["phase"] + cats, rows,
                        title="Fig 7(b) — phase instruction mix")
    return data, text


# -- Fig 9: FG characterization ----------------------------------------

def fig9a(runs):
    machine = _paper_machine()
    data = {}
    for label, threads in (("1P", 1), ("4P", 4)):
        serial = cg_par = fg = 0.0
        for name in runs:
            report = runs[name].measured
            for phase in SERIAL_PHASES:
                serial += machine.phase_seconds(report, phase)
            for phase in PARALLEL_PHASES:
                seconds = machine.phase_seconds(
                    report, phase, threads=threads)
                share = FG_KERNEL_SHARE[phase]
                fg += share * seconds
                cg_par += (1.0 - share) * seconds
        data[label] = {"serial": serial, "cg_parallel": cg_par,
                       "fg": fg}
    rows = [[label, f"{d['serial'] * 1e3:.2f}",
             f"{d['cg_parallel'] * 1e3:.2f}", f"{d['fg'] * 1e3:.2f}"]
            for label, d in data.items()]
    text = format_table(
        ["config", "serial ms", "cg-parallel ms", "fg-eligible ms"],
        rows,
        title="Fig 9(a) — where the frame time lives (all benchmarks)")
    return data, text


def fig9b(runs):
    data = {k: dict(v) for k, v in KERNEL_MIX.items()}
    cats = list(next(iter(KERNEL_MIX.values())).keys())
    rows = [[kernel] + [f"{KERNEL_MIX[kernel][c]:.2f}" for c in cats]
            for kernel in KERNEL_MIX]
    text = format_table(["kernel"] + cats, rows,
                        title="Fig 9(b) — FG kernel instruction mix")
    return data, text


def kernel_footprints():
    data = {k: dict(v) for k, v in KERNEL_FOOTPRINTS.items()}
    data["all_kernels_code_bytes_32bit"] = sum(
        v["code_bytes_32bit"] for v in KERNEL_FOOTPRINTS.values())
    rows = [
        [kernel, v["static_insts"], v["code_bytes_32bit"],
         v["read_bytes_per_100"], v["write_bytes_per_100"]]
        for kernel, v in KERNEL_FOOTPRINTS.items()
    ]
    rows.append(["total", "", data["all_kernels_code_bytes_32bit"],
                 "", ""])
    text = format_table(
        ["kernel", "static insts", "code bytes (32-bit)",
         "read B/100 iter", "write B/100 iter"],
        rows,
        title="Table 5 — static kernel footprints")
    return data, text


# -- Fig 10: FG core design space --------------------------------------

def fig10a(runs):
    kernels = ("narrowphase", "island", "cloth")
    data = {
        design: {k: kernel_ipc(design, k) for k in kernels}
        for design in ALL_DESIGNS
    }
    rows = [[design] + [f"{data[design][k]:.2f}" for k in kernels]
            for design in ALL_DESIGNS]
    text = format_table(["design"] + list(kernels), rows,
                        title="Fig 10(a) — IPC per FG core design")
    return data, text


FIG10B_BUDGETS = (1.0, 0.32, 0.25, 0.125)


def fig10b(runs):
    report = runs[STUDY_BENCHMARK].measured
    data, rows = {}, []
    for design in ALL_DESIGNS:
        machine = ParallaxMachine(ParallaxConfig(fg_design=design))
        data[design] = {
            budget: machine.fg_cores_required(report, budget)
            for budget in FIG10B_BUDGETS
        }
        rows.append([design] + [data[design][b]
                                for b in FIG10B_BUDGETS])
    text = format_table(
        ["design"] + [f"{b * 100:g}%" for b in FIG10B_BUDGETS], rows,
        title=f"Fig 10(b) — FG cores required for 30 FPS "
              f"({STUDY_BENCHMARK})")
    return data, text


# -- Table 7 / Fig 11: latency hiding ----------------------------------

LINKS = ("onchip", "htx", "pcie")


def _link(name):
    from ..arch.interconnect import HTX, ONCHIP_MESH, PCIE
    return {"onchip": ONCHIP_MESH, "htx": HTX, "pcie": PCIE}[name]


def _mean_task_cycles(runs, phase, design):
    """Mean FG-task service cycles for a phase, over every benchmark
    that exposes tasks in it."""
    kernel = KERNEL_FOR_PHASE[phase]
    ipc = kernel_ipc(design, kernel)
    costs = []
    for run in runs.values():
        costs.extend(run.measured.tasks.get(phase, []))
    if not costs or ipc <= 0:
        return 0.0
    return (sum(costs) / len(costs)) / ipc


def table7(runs):
    data, rows = {}, []
    for design in FG_DESIGNS:
        pool = PAPER_POOL_CORES[design]
        data[design] = {}
        for link_name in LINKS:
            link = _link(link_name)
            per_phase = {}
            for phase in PARALLEL_PHASES:
                task_cycles = _mean_task_cycles(runs, phase, design)
                kernel = KERNEL_FOR_PHASE[phase]
                task_bytes = (64 + KERNEL_FOOTPRINTS[kernel]
                              ["write_bytes_per_100"])
                if task_cycles <= 0:
                    per_phase[phase] = float("inf")
                elif not arbiter.bandwidth_feasible(
                        pool, task_cycles, task_bytes, link):
                    per_phase[phase] = float("inf")
                else:
                    per_phase[phase] = arbiter.\
                        tasks_in_flight_required(pool, task_cycles,
                                                 link)
            data[design][link_name] = per_phase
            rows.append(
                [design, link_name]
                + [("inf" if per_phase[p] == float("inf")
                    else int(per_phase[p]))
                   for p in PARALLEL_PHASES])
    text = format_table(
        ["design", "link"] + list(PARALLEL_PHASES), rows,
        title="Table 7 — FG tasks required to hide communication")
    return data, text


def fig11(runs):
    data, rows = {}, []
    for name in _ordered(runs):
        report = runs[name].measured
        data[name] = {
            phase: len(report.tasks.get(phase, []))
            for phase in PARALLEL_PHASES
        }
        rows.append([name] + [data[name][p] for p in PARALLEL_PHASES])
    text = format_table(
        ["benchmark"] + list(PARALLEL_PHASES), rows,
        title="Fig 11 — FG tasks available per frame")
    return data, text


def offchip_filtering(runs):
    """Average hidden fraction of FG work per link (§8.2.2)."""
    data, rows = {}, []
    for link_name in LINKS:
        machine = ParallaxMachine(ParallaxConfig(
            cg_cores=4, l2=L2Partitioning.paper_scheme(),
            fg_design="shader", fg_cores=PAPER_POOL_CORES["shader"],
            interconnect=_link(link_name)))
        per_phase = {}
        for phase in PARALLEL_PHASES:
            fracs = [
                machine.hidden_fraction(runs[name].measured, phase)
                for name in runs
                if runs[name].measured.tasks.get(phase)
            ]
            per_phase[phase] = (sum(fracs) / len(fracs)
                                if fracs else 0.0)
        data[link_name] = per_phase
        rows.append([link_name]
                    + [f"{per_phase[p]:.2f}"
                       for p in PARALLEL_PHASES])
    text = format_table(
        ["link"] + list(PARALLEL_PHASES), rows,
        title="Offchip filtering — hidden share of FG work "
              "(150 shader cores)")
    return data, text


# -- Area / arbitration ------------------------------------------------

# A representative deformable/mix frame's CG task demands (Minst): the
# 625-vertex drape dominates whatever thread it lands on.
_SKEWED_DEMANDS = [2.4] + [0.08] * 15


def area_table():
    data, rows = {}, []
    for design in FG_DESIGNS:
        cores = PAPER_POOL_CORES[design]
        area = fg_pool_area(design, cores)
        data[design] = area
        d = DESIGNS[design]
        rows.append([design, cores, f"{area:.0f}",
                     f"{d.width}-wide "
                     f"{'in-order' if d.in_order else 'OoO'}"])
    overhead = arbiter.static_mapping_overhead(_SKEWED_DEMANDS,
                                               threads=4)
    data["static_mapping_overhead"] = overhead
    rows.append(["static-map", "", f"+{overhead * 100:.0f}%",
                 "overhead vs flexible arbiter"])
    text = format_table(
        ["pool", "cores", "area mm^2", "core"], rows,
        title="FG pool areas (90nm) and arbitration overhead")
    return data, text
