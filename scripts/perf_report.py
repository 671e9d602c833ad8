#!/usr/bin/env python
"""Emit a machine-readable performance snapshot.

Default mode times the engine's core kernels with ``time.perf_counter``
and records the per-phase modeled frame breakdown at smoke scale, so
CI runs leave a comparable artifact:

    PYTHONPATH=src python scripts/perf_report.py --out BENCH_5.json

``--compare-backends`` instead times every Table 3 workload on the
scalar and numpy backends plus a packed :class:`BatchWorld` fleet:

    PYTHONPATH=src python scripts/perf_report.py --compare-backends \\
        --out BENCH_6.json

``--lint`` emits the PaxLint static-analysis snapshot instead —
finding counts per rule plus suppression totals — so the lint debt of
every commit is tracked next to its performance numbers:

    PYTHONPATH=src python scripts/perf_report.py --lint \\
        --out BENCH_8.json

``--serve`` runs the sharded simulation service load test
(``repro.serve.loadtest``) at smoke scale and records throughput, p95
frame time, and the migration bit-identity verdict:

    PYTHONPATH=src python scripts/perf_report.py --serve \\
        --out BENCH_9.json

``--ablation`` runs the feature-ablation matrix (``repro.ablation``)
over the Table 3 workloads and records per-feature importance scores:

    PYTHONPATH=src python scripts/perf_report.py --ablation \\
        --out BENCH_10.json

``--all`` emits every non-serve snapshot (BENCH_5/6/8/10) in one
process under ``--out-dir`` (default ``results/bench``) — the one CI
invocation.  The gate side:

    PYTHONPATH=src python scripts/perf_report.py --check \\
        --dir fresh --trajectory results/bench/trajectory.json

compares a directory of freshly emitted BENCH files against the
committed trajectory's per-metric tolerance bands and exits nonzero on
any regression; ``--update-trajectory --dir results/bench`` rebuilds
the trajectory from the BENCH files in a directory (run it after an
intentional perf change and commit the result).

``REPRO_SERVE_SESSIONS`` / ``REPRO_SERVE_WORKERS`` /
``REPRO_SERVE_FRAMES`` size the serve run.
``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_FRAMES`` (and, for the
comparison, ``REPRO_BENCH_REPEATS`` / ``REPRO_BENCH_BATCH``) control
the workload size exactly as they do for the benchmark suite.
"""

import argparse
import json
import os
import platform
import sys
import time


def _time(fn, *args, repeat=5):
    """Best-of-N wall-clock seconds for one call."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def engine_microbench():
    from repro.cloth import Cloth
    from repro.collision import SweepAndPrune, collide
    from repro.collision.geom import Geom
    from repro.dynamics import Body, solve_island
    from repro.dynamics.joints import ContactJoint
    from repro.engine import World
    from repro.geometry import Box, Plane, Sphere
    from repro.math3d import Vec3

    out = {}

    geoms = []
    for i in range(200):
        body = Body(position=Vec3((i % 20) * 0.9, (i // 20) * 0.9, 0.0))
        body.set_mass_from_shape(Sphere(0.5), 1.0)
        geoms.append(Geom(Sphere(0.5), body=body))
    bp = SweepAndPrune()
    out["broadphase_sap_200"] = _time(bp.pairs, geoms)

    a = Body(position=Vec3(0, 0, 0))
    ga = Geom(Box(Vec3(0.5, 0.5, 0.5)), body=a)
    b = Body(position=Vec3(0.8, 0.2, 0.1))
    gb = Geom(Box(Vec3(0.5, 0.5, 0.5)), body=b)
    out["narrowphase_box_box"] = _time(collide, ga, gb)

    w = World()
    w.add_static_geom(Plane(Vec3(0, 1, 0)))
    for i in range(10):
        body = Body(position=Vec3((i % 3) * 0.4, 0.4 + 0.45 * i, 0))
        w.attach(body, Sphere(0.3))
    for _ in range(30):
        w.step()
    rows = []
    for ga, gb in w.broadphase.pairs(w.geoms):
        for c in collide(ga, gb):
            rows.extend(ContactJoint(c).begin_step(0.01, 0.2))
    out["solver_20_iters"] = _time(solve_island, rows, 20)

    cloth = Cloth(25, 25, 0.1, Vec3(0, 3, 0), pin_top_row=True)
    out["cloth_step_625v"] = _time(cloth.step, 0.01, Vec3(0, -9.81, 0))

    return out


def modeled_phases(scale, frames):
    from repro.arch import L2Partitioning, ParallaxConfig, ParallaxMachine
    from repro.profiling.report import PHASES
    from repro.api import SessionSpec, run_scenario

    t0 = time.perf_counter()
    run = run_scenario(SessionSpec("mix", scale=scale), frames=frames)
    sim_seconds = time.perf_counter() - t0

    machine = ParallaxMachine(
        ParallaxConfig(cg_cores=4, l2=L2Partitioning.paper_scheme()))
    report = run.measured
    phases = {p: machine.phase_seconds(report, p, threads=4)
              for p in PHASES}
    return {
        "benchmark": "mix",
        "scale": scale,
        "frames": frames,
        "wall_seconds": sim_seconds,
        "minst_per_frame": run.total_instructions() / 1e6,
        "modeled_phase_seconds": phases,
        "modeled_frame_seconds": machine.frame_seconds(report, threads=4),
    }


def backend_comparison(scale, frames, repeats, batch_n):
    """Per-workload frame times: scalar vs numpy vs BatchWorld.

    Uses ``time.process_time`` best-of-``repeats`` — wall clock on a
    shared CI box swings far more than the kernels themselves do.
    The batch column is per *world*-frame across ``batch_n`` packed
    copies of each workload.
    """
    from repro.fastpath import BatchWorld, default_backend
    from repro.profiling import FrameReport
    from repro.workloads import BENCHMARKS

    def build(name, backend, seed=0):
        with default_backend(backend):
            return BENCHMARKS[name].build(scale=scale, seed=seed)

    def run_frames(world, driver):
        for _ in range(frames):
            world.report = FrameReport(world.frame_index)
            for _ in range(world.config.substeps_per_frame):
                if driver is not None:
                    driver()
                world.step()
            world.frame_index += 1

    workloads = {}
    speedups = {"numpy": [], "batch": []}
    for name in sorted(BENCHMARKS):
        per_frame = {}
        for backend in ("scalar", "numpy"):
            best = float("inf")
            for _ in range(repeats):
                world, driver = build(name, backend)
                t0 = time.process_time()
                run_frames(world, driver)
                best = min(best, time.process_time() - t0)
            per_frame[backend] = best / frames
        best = float("inf")
        for _ in range(repeats):
            worlds, drivers = [], []
            for seed in range(batch_n):
                world, driver = build(name, "numpy", seed=seed)
                worlds.append(world)
                drivers.append(driver)
            batch = BatchWorld(worlds)
            t0 = time.process_time()
            for _ in range(frames):
                batch.step_frame(drivers)
            best = min(best, time.process_time() - t0)
        per_frame["batch"] = best / (frames * batch_n)

        numpy_x = per_frame["scalar"] / per_frame["numpy"]
        batch_x = per_frame["scalar"] / per_frame["batch"]
        speedups["numpy"].append(numpy_x)
        speedups["batch"].append(batch_x)
        workloads[name] = {
            "scalar_ms_per_frame": per_frame["scalar"] * 1e3,
            "numpy_ms_per_frame": per_frame["numpy"] * 1e3,
            "batch_ms_per_world_frame": per_frame["batch"] * 1e3,
            "numpy_speedup": numpy_x,
            "batch_speedup": batch_x,
        }
        print(f"{name:12s} scalar={per_frame['scalar'] * 1e3:8.2f}ms "
              f"numpy={per_frame['numpy'] * 1e3:8.2f}ms "
              f"batch={per_frame['batch'] * 1e3:8.2f}ms "
              f"x{numpy_x:.2f}/x{batch_x:.2f}")

    def geomean(xs):
        prod = 1.0
        for x in xs:
            prod *= x
        return prod ** (1.0 / len(xs))

    return {
        "scale": scale,
        "frames": frames,
        "repeats": repeats,
        "batch_worlds": batch_n,
        "workloads": workloads,
        "geomean_numpy_speedup": geomean(speedups["numpy"]),
        "geomean_batch_speedup": geomean(speedups["batch"]),
    }


def serve_snapshot(sessions, workers, frames):
    """Run the serve load test and fold its numbers into the report.

    Delegates to ``repro.serve.loadtest`` so the artifact matches what
    ``python -m repro.serve.loadtest`` emits, wrapped with the same
    schema/platform envelope as the other BENCH files.
    """
    import asyncio

    from repro.serve.loadtest import build_parser, run_loadtest

    opts = build_parser().parse_args([
        "--sessions", str(sessions), "--workers", str(workers),
        "--frames", str(frames)])
    report = asyncio.run(run_loadtest(opts))
    summary = report["frame_time_summary"]
    print(f"serve: {sessions} sessions / {workers} workers "
          f"{report['throughput_fps']:.1f} fps "
          f"p95={summary['p95_s'] * 1e3:.2f}ms "
          f"migration_divergence={report['migration']['divergence']}")
    return report


def lint_snapshot():
    """Run PaxLint over src/repro and summarize the result."""
    import time as _time

    from repro.lint import all_rules, lint_paths

    root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "repro")
    t0 = _time.perf_counter()
    result = lint_paths([root])
    seconds = _time.perf_counter() - t0

    def by_rule(findings):
        counts = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    return {
        "files": result.files,
        "rules": [r.code for r in all_rules()],
        "wall_seconds": seconds,
        "new_findings": len(result.active),
        "baselined_findings": len(result.baselined),
        "suppressed_findings": len(result.suppressed),
        "new_by_rule": by_rule(result.active),
        "suppressed_by_rule": by_rule(result.suppressed),
        "exit_code": result.exit_code,
    }


def ablation_snapshot(scale, frames, jobs=None):
    """Run the feature-ablation matrix (``repro.ablation``)."""
    from repro.ablation import AblationConfig, AblationRunner

    config = AblationConfig(scale=scale, frames=frames, jobs=jobs)
    payload = AblationRunner(config).run(
        progress=lambda msg: print(msg, flush=True))
    for name, feature in sorted(payload["features"].items()):
        summary = feature["summary"]
        print(f"{name:16s} dfps {summary['mean_delta_fps_pct']:+7.1f}% "
              f"importance {summary['importance']:.3f} "
              f"{'OK' if summary['all_validate_ok'] else 'INVALID'}")
    return payload


def _envelope(section, body):
    schemas = {
        "engine": "repro-perf-report/1",
        "comparison": "repro-backend-comparison/1",
        "lint": "repro-lint-report/1",
        "serve": "repro-serve-loadtest/1",
        "ablation": "repro-ablation-report/1",
    }
    report = {
        "schema": schemas[section],
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if section == "engine":
        report.update(body)
    else:
        report[section] = body
    return report


def check_trajectory(trajectory_path, directory, update=False):
    """Gate (or rebuild) the committed trajectory; returns exit code."""
    from repro.ablation import trajectory as traj

    if update:
        doc = traj.build_trajectory(directory, settings={
            "scale": os.environ.get("REPRO_BENCH_SCALE", "0.03"),
            "frames": os.environ.get("REPRO_BENCH_FRAMES", "2"),
        })
        traj.save(doc, trajectory_path)
        print(f"wrote {trajectory_path} "
              f"({len(doc['metrics'])} metrics from "
              f"{', '.join(doc['sources'])})")
        return 0

    doc = traj.load(trajectory_path)
    results = traj.check_directory(doc, directory)
    failures = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.id}: {r.detail}")
    print(f"perf-gate: {len(results) - len(failures)}/{len(results)} "
          f"metrics within tolerance"
          + (f", {len(failures)} REGRESSED" if failures else ""))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="output path for a single-mode run "
                             "(overrides --out-dir)")
    parser.add_argument("--out-dir", default="results/bench",
                        help="directory BENCH files land in (used by "
                             "--all, or when --out is not given)")
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get(
                            "REPRO_BENCH_SCALE", "0.03")))
    parser.add_argument("--frames", type=int,
                        default=int(os.environ.get(
                            "REPRO_BENCH_FRAMES", "2")))
    parser.add_argument("--compare-backends", action="store_true",
                        help="emit the scalar/numpy/BatchWorld frame-"
                             "time comparison (BENCH_6) instead of the"
                             " kernel microbench snapshot (BENCH_5)")
    parser.add_argument("--lint", action="store_true",
                        help="emit the PaxLint finding-count snapshot"
                             " (BENCH_8) instead of timings")
    parser.add_argument("--serve", action="store_true",
                        help="emit the sharded-service load-test "
                             "snapshot (BENCH_9): throughput, p95 "
                             "frame time, migration bit-identity")
    parser.add_argument("--ablation", action="store_true",
                        help="emit the feature-ablation importance "
                             "matrix (BENCH_10)")
    parser.add_argument("--all", action="store_true",
                        help="emit BENCH_5/6/8/10 in one process "
                             "under --out-dir")
    parser.add_argument("--check", action="store_true",
                        help="compare fresh BENCH files in --dir "
                             "against --trajectory; exit nonzero on "
                             "any out-of-band metric")
    parser.add_argument("--update-trajectory", action="store_true",
                        help="rebuild --trajectory from the BENCH "
                             "files in --dir")
    parser.add_argument("--dir", default="results/bench",
                        help="directory of BENCH files for --check / "
                             "--update-trajectory")
    parser.add_argument("--trajectory",
                        default="results/bench/trajectory.json")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for --ablation")
    parser.add_argument("--serve-sessions", type=int,
                        default=int(os.environ.get(
                            "REPRO_SERVE_SESSIONS", "24")))
    parser.add_argument("--serve-workers", type=int,
                        default=int(os.environ.get(
                            "REPRO_SERVE_WORKERS", "2")))
    parser.add_argument("--serve-frames", type=int,
                        default=int(os.environ.get(
                            "REPRO_SERVE_FRAMES", "6")))
    parser.add_argument("--repeats", type=int,
                        default=int(os.environ.get(
                            "REPRO_BENCH_REPEATS", "2")))
    parser.add_argument("--batch-n", type=int,
                        default=int(os.environ.get(
                            "REPRO_BENCH_BATCH", "32")))
    args = parser.parse_args(argv)

    if args.check or args.update_trajectory:
        return check_trajectory(args.trajectory, args.dir,
                                update=args.update_trajectory)

    def perf_body():
        return {"engine_microbench_seconds": engine_microbench(),
                "modeled": modeled_phases(args.scale, args.frames)}

    emitters = {
        "BENCH_5.json": ("engine", perf_body),
        "BENCH_6.json": ("comparison", lambda: backend_comparison(
            args.scale, args.frames, args.repeats, args.batch_n)),
        "BENCH_8.json": ("lint", lint_snapshot),
        "BENCH_9.json": ("serve", lambda: serve_snapshot(
            args.serve_sessions, args.serve_workers,
            args.serve_frames)),
        "BENCH_10.json": ("ablation", lambda: ablation_snapshot(
            args.scale, args.frames, args.jobs)),
    }
    if args.all:
        # Everything except serve, which CI runs in its own job with
        # event-loop isolation.
        selected = ["BENCH_5.json", "BENCH_6.json", "BENCH_8.json",
                    "BENCH_10.json"]
    elif args.serve:
        selected = ["BENCH_9.json"]
    elif args.lint:
        selected = ["BENCH_8.json"]
    elif args.compare_backends:
        selected = ["BENCH_6.json"]
    elif args.ablation:
        selected = ["BENCH_10.json"]
    else:
        selected = ["BENCH_5.json"]

    for filename in selected:
        section, build = emitters[filename]
        report = _envelope(section, build())
        if args.out and not args.all:
            out = args.out
        else:
            out = os.path.join(args.out_dir, filename)
        out_dir = os.path.dirname(out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
