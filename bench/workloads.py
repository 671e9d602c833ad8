"""One pass of one workload, run in a fresh process.

``python -m bench.workloads --workload NAME --seed S ...`` (started by
``bench/run.py`` from the repo root with ``src/`` on ``PYTHONPATH``)
generates the workload's inputs from the seed, drives the program
through its public API as one closed-loop client process, checks the
outputs, and prints one JSON object: the client-observed figures, the
per-layer figures when traced, and the operations attempted and failed.
The program under test receives only the generated ``SessionSpec``s.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import resource
import sys
import time
from time import perf_counter

from . import layers, stats, trace

#: Why each workload exists; ``BENCHMARK.json`` and the README quote it.
WORKLOADS = {
    # Constraint-dominated, right at the 33.3 ms budget: 48 bodies and
    # 45 joints in narrow islands, so the packed solver takes its
    # sequential path.
    "solo_articulated": {"scenario": "ragdoll", "scale": 0.1,
                         "sessions": 1, "warmup": 5, "frames": 200,
                         "twin_frames": 30},
    # The complement: 240 free bodies, no joints, 240 one-body islands;
    # collision, integration and per-island glue dominate. Six fresh
    # sessions keep every measured frame inside the bouncing regime.
    "solo_contact": {"scenario": "periodic", "scale": 0.5,
                     "sessions": 6, "warmup": 5, "frames": 50,
                     "twin_frames": 30},
    # The only path through queue -> pickle -> shard round -> packed
    # solve -> reply; wide packed levels, cloth, and checkpoint/restore.
    "fleet_serve": {"scenarios": ("ragdoll", "breakable", "deformable"),
                    "scale": 0.05, "per_shard": 16, "warmup": 3,
                    "frames": 15},
    # The architects' use: scalar oracle engine, then every figure and
    # table driver over repro.arch; nothing of fastpath or serve.
    "analysis_regen": {"scale": 0.4, "frames": 4},
}

SMOKE = {
    "solo_articulated": {"warmup": 1, "frames": 10, "twin_frames": 3},
    "solo_contact": {"sessions": 2, "warmup": 1, "frames": 5,
                     "twin_frames": 3},
    "fleet_serve": {"per_shard": 3, "warmup": 1, "frames": 3},
    "analysis_regen": {"scale": 0.05, "frames": 2},
}

FAILED = object()


class Ops:
    """Operations attempted and failed; a failed one yields no sample."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, label, detail):
        self.failed += 1
        self.failures.append(f"{label}: {detail}")

    def attempt(self, label, fn, *args):
        """``fn(*args)``, or :data:`FAILED` if it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return FAILED

    async def attempt_async(self, label, factory):
        self.attempted += 1
        try:
            return await factory()
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return FAILED

    def check(self, label, ok: bool, detail: str = ""):
        """An output check is one operation."""
        self.attempted += 1
        if not ok:
            self._fail(label, detail or "check failed")


def _digest_of(parts) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


# -- solo_articulated / solo_contact ------------------------------------

def run_solo(params, seed, tag, ops, recorder, traced, out):
    from repro.api import Session, SessionSpec

    if traced:
        layers.install_engine(recorder)
    recorder.enabled = False
    latencies, digests, totals = [], [], {}
    for index in range(params["sessions"]):
        spec = SessionSpec(params["scenario"], scale=params["scale"],
                           seed=seed + index, backend="numpy")
        session = Session.create(spec)
        session.step(params["warmup"])
        out.setdefault("setup_done", time.time())
        recorder.enabled = True
        for frame in range(params["frames"]):
            recorder.request = f"{tag}/{index}/{frame}"
            start = perf_counter()
            done = ops.attempt(f"step {recorder.request}", session.step, 1)
            if done is not FAILED:
                latencies.append(perf_counter() - start)
        recorder.enabled = False
        digests.append(session.state_digest())
        if traced:
            # Keep the counters, not the reports: a session's retained
            # reports are the program's memory, not the benchmark's.
            layers.add_report_totals(
                totals, session.reports[params["warmup"]:])

    # One client, one request at a time: the frames tile the window.
    out["latencies"] = out["segments"] = latencies
    out["digest"] = _digest_of(digests)
    if traced:
        out["layers"] = layers.engine_metrics(recorder, totals,
                                              len(latencies))
        out["traced_frame_ms"] = sum(latencies) * 1e3 / len(latencies)


def twin_check(params, seed, ops):
    """A scalar-backend twin must end on the numpy session's digest."""
    from repro.api import Session, SessionSpec

    digests = {}
    for backend in ("numpy", "scalar"):
        session = Session.create(SessionSpec(
            params["scenario"], scale=params["scale"], seed=seed,
            backend=backend))
        session.step(params["twin_frames"])
        digests[backend] = session.state_digest()
    ops.check("scalar twin digest",
              digests["numpy"] == digests["scalar"],
              f"numpy {digests['numpy'][:12]} != "
              f"scalar {digests['scalar'][:12]} after "
              f"{params['twin_frames']} frames")


# -- fleet_serve --------------------------------------------------------

BACKPRESSURE_TRIES = 50


def shard_count() -> int:
    """One worker per core left beside the client, at most two."""
    return min(2, max(1, (os.cpu_count() or 1) - 1))


def fleet_sessions(params, seed, shards):
    """``[(session id, home shard, spec)]``: ``per_shard`` ids on each
    shard under the service's own hash placement."""
    from repro.api import SessionSpec
    from repro.serve import shard_for

    room = [params["per_shard"]] * shards
    sessions = []
    number = 0
    while any(room):
        sid = f"s{number:04d}"
        number += 1
        home = shard_for(sid, shards)
        if room[home]:
            room[home] -= 1
            index = len(sessions)
            scenarios = params["scenarios"]
            sessions.append((sid, home, SessionSpec(
                scenarios[index % len(scenarios)], scale=params["scale"],
                seed=seed + index, backend="numpy")))
    return sessions


async def serve_phase(params, tag, ops, shards, sessions, out):
    """Create, warm up, step (measured), migrate and query every
    session through ``SimService``; one closed-loop client each."""
    from repro.serve import BackpressureError, SimService

    retries = [0]

    async def call(factory):
        delay = 0.005
        for attempt in range(BACKPRESSURE_TRIES):
            try:
                return await factory()
            except BackpressureError:
                if attempt == BACKPRESSURE_TRIES - 1:
                    raise
                retries[0] += 1
                await asyncio.sleep(delay)
                delay = min(delay * 2, 0.25)

    async def timed(label, factory, into):
        start = perf_counter()
        reply = await ops.attempt_async(label, lambda: call(factory))
        if reply is not FAILED:
            into.append(perf_counter() - start)
        return reply

    create_s, query_s = [], []
    step_s = [[] for _ in sessions]    # per client, in step order
    replied = [[] for _ in sessions]   # when each of those replies came
    migrate_s, checkpoint_s, restore_s, checkpoint_bytes = [], [], [], []
    served = {}  # session id -> (frames stepped, digest)
    service = SimService.start(n_shards=shards)
    try:
        for sid, _home, spec in sessions:
            await timed(f"create {sid}",
                        lambda: service.create_session(sid, spec),
                        create_s)

        async def client(sid, steps, into, stamps):
            for step in range(steps):
                await timed(f"step {tag}/{sid}/{step}",
                            lambda: service.step(sid, 1), into)
                stamps.append(perf_counter())

        await asyncio.gather(*(client(sid, params["warmup"], [], [])
                               for sid, _h, _s in sessions))
        out.setdefault("setup_done", time.time())
        window_start = perf_counter()
        await asyncio.gather(*(
            client(sid, params["frames"], step_s[i], replied[i])
            for i, (sid, _h, _s) in enumerate(sessions)))

        stepped = params["warmup"] + params["frames"]
        first = sessions[0][0]
        reply = await call(lambda: service.query(first))
        served[first] = (stepped, reply["digest"])

        async def migrate(sid, target):
            start = perf_counter()
            payload = await call(lambda: service.checkpoint(sid))
            checkpointed = perf_counter()
            await call(lambda: service.destroy(sid))
            destroyed = perf_counter()
            await call(lambda: service.restore_session(sid, payload,
                                                       target))
            restored = perf_counter()
            await call(lambda: service.step(sid, 1))
            return (perf_counter() - start, checkpointed - start,
                    restored - destroyed, len(json.dumps(payload)))

        for sid, home, _spec in sessions:
            moved = await ops.attempt_async(
                f"migrate {sid}",
                lambda: migrate(sid, (home + 1) % shards))
            if moved is not FAILED:
                for value, into in zip(moved, (migrate_s, checkpoint_s,
                                               restore_s,
                                               checkpoint_bytes)):
                    into.append(value)

        # The cluster is idle again: a query is the hop with no physics.
        digests = []
        for sid, _home, _spec in sessions:
            reply = await timed(f"query {sid}",
                                lambda: service.query(sid), query_s)
            digests.append("?" if reply is FAILED else reply["digest"])
        last = sessions[-1][0]
        served[last] = (stepped + 1, digests[-1])
        snapshot = await call(service.stats)
    finally:
        await service.close()

    # The clients advance in rounds; round k ends when the last of
    # them has its k-th reply, so the rounds tile the measured window.
    round_ends = [max(stamps) for stamps in zip(*replied)]
    out["segments"] = [end - start for start, end
                       in zip([window_start] + round_ends, round_ends)]
    out["latencies"] = [t for client_s in step_s for t in client_s]
    out["migrations"] = migrate_s
    out["digest"] = _digest_of(digests)
    counters = snapshot["counters"]
    frames = counters.get("frames", 0)

    def p50_ms(values):
        return stats.percentile(values, 50) * 1e3

    out["layers"] = {
        "serve.rtt_idle_ms_p50": p50_ms(query_s),
        "serve.create_ms_p50": p50_ms(create_s),
        "serve.shard.frame_ms_p50":
            snapshot["frame_time_summary"]["p50_s"] * 1e3,
        "serve.batched_share":
            counters.get("batched_frames", 0) / frames if frames else 0.0,
        "serve.queue_depth_peak": snapshot["queue_depth_peak"],
        "serve.commands": counters.get("commands", 0),
        "serve.errors": counters.get("errors", 0),
        "serve.backpressure_retries": retries[0],
        "resilience.checkpoint_ms_p50": p50_ms(checkpoint_s),
        "resilience.restore_ms_p50": p50_ms(restore_s),
        "resilience.checkpoint_bytes":
            stats.percentile(checkpoint_bytes, 50),
    }
    return served


def replay_check(ops, sessions, served):
    """A served session must sit on the digest a local replay reaches."""
    from repro.api import Session

    specs = {sid: spec for sid, _home, spec in sessions}
    for sid, (frames, digest) in served.items():
        local = Session.create(specs[sid])
        local.step(frames)
        ops.check(f"local replay of {sid}",
                  local.state_digest() == digest,
                  f"served {digest[:12]} != local "
                  f"{local.state_digest()[:12]} after {frames} frames")


def replica(params, tag, recorder, specs, traced):
    """One shard's session set stepped in this process through
    ``SessionGroup``: what the shard's physics costs with no serving."""
    from repro.api import Session, SessionGroup

    sessions = [Session.create(spec) for spec in specs]
    group = SessionGroup(sessions)
    group.step(params["warmup"])
    recorder.enabled = traced
    start = perf_counter()
    for frame in range(params["frames"]):
        recorder.request = f"{tag}/replica/{frame}"
        group.step(1)
    window = perf_counter() - start
    recorder.enabled = False
    totals = {}
    for session in sessions:
        layers.add_report_totals(totals,
                                 session.reports[params["warmup"]:])
    return window, totals, len(sessions) * params["frames"]


def run_fleet(params, seed, tag, ops, recorder, traced, out):
    shards = shard_count()
    sessions = fleet_sessions(params, seed, shards)
    served = asyncio.run(
        serve_phase(params, tag, ops, shards, sessions, out))
    replay_check(ops, sessions, served)
    if not traced:
        return
    # Wrappers go in only now, after the workers have forked and gone:
    # the served phase above ran untraced in every process.
    specs = [spec for _sid, home, spec in sessions if home == 0]
    plain_s, _totals, frames = replica(params, tag, recorder, specs, False)
    layers.install_engine(recorder)
    traced_s, totals, frames = replica(params, tag, recorder, specs, True)
    served_fps = len(out["latencies"]) / sum(out["segments"])
    out["layers"].update(layers.engine_metrics(recorder, totals, frames))
    out["layers"]["serve.efficiency"] = (
        served_fps / (shards * frames / plain_s))
    out["layers"]["trace.overhead_ratio"] = traced_s / plain_s
    out["traced_frame_ms"] = traced_s * 1e3 / frames


# -- analysis_regen -----------------------------------------------------

def analysis_drivers():
    """Every paper/extension driver of ``python -m repro.analysis``; the
    ``ablation_*`` studies re-run the engine at a fixed scale, which
    the stepping workloads already cover."""
    from repro.ablation.studies import STUDIES
    from repro.analysis.__main__ import EXPERIMENTS

    return {name: fn for name, fn in EXPERIMENTS.items()
            if name not in STUDIES}


def _render(driver, runs, path):
    result = driver(runs)
    text = result[1] if isinstance(result, tuple) else result
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def run_analysis(params, seed, tag, ops, recorder, traced, out):
    from repro.analysis import calibrate
    from repro.api import Session, SessionSpec
    from repro.workloads import BENCHMARKS, BenchmarkRun

    drivers = analysis_drivers()
    if traced:
        layers.install_arch(recorder)
    tables = os.path.join(params["out_dir"], "analysis_regen")
    os.makedirs(tables, exist_ok=True)
    out["setup_done"] = time.time()

    # The simulate phase is workloads.run_all -> api.run_scenario spelt
    # out (same spec, same uid mode, same order), one step(1) per frame
    # so that each rendered frame is a client-observed sample.
    lap_start = [perf_counter()]

    def lap():
        """Seconds since the previous lap: the laps tile the run."""
        now = perf_counter()
        took, lap_start[0] = now - lap_start[0], now
        return took

    frames = params["frames"]
    segments, latencies, runs = [], [], {}
    with recorder.span("workloads.run_all"):
        for name in BENCHMARKS:
            session = Session.create(
                SessionSpec(name, scale=params["scale"], seed=seed,
                            backend="scalar"),
                isolate_uids=False)
            segments.append(lap())
            for frame in range(frames):
                recorder.request = f"{tag}/{name}/{frame}"
                done = ops.attempt(f"step {recorder.request}",
                                   session.step, 1)
                segments.append(lap())
                if done is not FAILED:
                    latencies.append(segments[-1])
            runs[name] = BenchmarkRun(
                name, params["scale"], seed, session.world,
                session.reports, max(0, frames - 2))
    run_all_s = sum(segments)

    hasher = hashlib.sha256()
    driver_s = {}
    for name, driver in drivers.items():
        recorder.request = f"{tag}/driver/{name}"
        with recorder.span(f"analysis.driver.{name}"):
            text = ops.attempt(f"driver {name}", _render, driver, runs,
                               os.path.join(tables, f"{name}.txt"))
        segments.append(lap())
        driver_s[name] = segments[-1]
        if text is not FAILED:
            hasher.update(f"{name}\n{text}\n".encode())

    ratios = [row["ratio"] for row in
              calibrate.calibration(runs)[0]["benchmarks"].values()]
    model_err = math.exp(sum(math.log(max(r, 1.0 / r)) for r in ratios)
                         / len(ratios))
    digest = hasher.hexdigest()

    out["segments"] = segments
    out["latencies"] = latencies
    out["regen"] = True
    out["exact"] = {"model_err_table3": model_err}
    out["digest"] = digest
    out["layers"] = {
        "workloads.run_all_s": run_all_s,
        "workloads.minst_simulated":
            sum(run.total_instructions() for run in runs.values()) / 1e6,
        # 48 bits of the table digest: exact in a JSON number.
        "analysis.sim_digest48": int(digest[:12], 16),
    }
    out["layers"].update({f"analysis.driver_s.{name}": seconds
                          for name, seconds in driver_s.items()})
    if traced:
        out["layers"].update(layers.arch_metrics(recorder))


RUNNERS = {
    "solo_articulated": run_solo,
    "solo_contact": run_solo,
    "fleet_serve": run_fleet,
    "analysis_regen": run_analysis,
}


def peak_rss_mb() -> float:
    """High-water RSS of the largest process of the pass, in MiB
    (``ru_maxrss`` is KiB on Linux; shard workers have been joined)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def run_pass(workload, seed, index, traced, smoke, checks, spawned_at,
             out_dir) -> dict:
    params = dict(WORKLOADS[workload], out_dir=out_dir)
    if smoke:
        params.update(SMOKE[workload])
    ops = Ops()
    recorder = trace.Recorder()
    tag = f"{workload}/{index}"
    out = {"workload": workload, "seed": seed, "pass": index,
           "traced": traced, "layers": {}}
    RUNNERS[workload](params, seed, tag, ops, recorder, traced, out)
    out["client"] = stats.client_figures(out)
    out["client"].update(out.pop("exact", {}))
    out["client"]["setup_s"] = out.pop("setup_done") - spawned_at
    out["client"]["peak_rss_mb"] = peak_rss_mb()
    if checks and "twin_frames" in params:
        twin_check(params, seed, ops)
    if traced:
        recorder.uninstall()
        recorder.write(
            os.path.join(out_dir, f"trace-{workload}.json"),
            workload=workload, seed=seed, params=params)
        out["spans"] = len(recorder)
    out["ops_attempted"] = ops.attempted
    out["ops_failed"] = ops.failed
    out["failures"] = ops.failures[:20]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.workloads",
                                     description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--checks", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.time())
    os.makedirs(args.out, exist_ok=True)
    result = run_pass(args.workload, args.seed, args.pass_index,
                      bool(args.trace), args.smoke, args.checks,
                      spawned_at, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
