"""Load-test harness for the simulation service.

Drives N concurrent sessions across W shard worker processes through
the asyncio front-end, in rounds of batched step commands, migrating a
few sessions between shards mid-run, then emits ``serve_loadtest.json``
with throughput, p50/p95/p99 frame times, queue depths, and a
bit-identity verdict comparing migrated sessions against local
unmigrated twins.

Usage::

    python -m repro.serve.loadtest --sessions 100 --workers 2 \\
        --frames 12 --out serve_loadtest.json

Everything is deterministic — per-session seeds are their index, no
RNG is consulted — so two runs differ only in timing, never in state.
"""

from __future__ import annotations

import argparse
import asyncio
import json

from ..api import Session, SessionSpec
from .metrics import now
from .protocol import BackpressureError
from .service import SimService


def session_ids(count: int):
    return [f"s{index:05d}" for index in range(count)]


def build_spec(opts, index: int) -> SessionSpec:
    scenarios = opts.scenario.split(",")
    return SessionSpec(scenarios[index % len(scenarios)],
                       scale=opts.scale, seed=index,
                       backend=opts.backend)


async def _retrying(coro_factory, max_tries: int = 200):
    """Await ``coro_factory()`` with exponential backoff on a full
    shard inbox — the load test sheds into retries, never into OOM."""
    delay = 0.005
    for attempt in range(max_tries):
        try:
            return await coro_factory()
        except BackpressureError:
            if attempt == max_tries - 1:
                raise
            await asyncio.sleep(delay)
            delay = min(delay * 2, 0.25)


async def run_loadtest(opts) -> dict:
    ids = session_ids(opts.sessions)
    service = SimService.start(
        n_shards=opts.workers, backlog=opts.backlog,
        request_timeout=opts.timeout)
    try:
        t_create = now()
        await asyncio.gather(*(
            _retrying(lambda sid=sid, i=i: service.create_session(
                sid, build_spec(opts, i)))
            for i, sid in enumerate(ids)))
        create_seconds = now() - t_create

        rounds = max(1, opts.frames // opts.round_frames)
        per_round = [opts.round_frames] * rounds
        per_round[-1] += opts.frames - opts.round_frames * rounds
        migrate_ids = ids[:opts.migrate]
        migrated_at = {}

        t_step = now()
        for round_index, frames in enumerate(per_round):
            await asyncio.gather(*(
                _retrying(lambda sid=sid, n=frames: service.step(sid,
                                                                 n))
                for sid in ids))
            if round_index == rounds // 2:
                # Mid-run migration: push each chosen session one
                # shard over and keep stepping it there.
                for sid in migrate_ids:
                    source = service.cluster.routing.shard_of(sid)
                    target = (source + 1) % opts.workers
                    await service.migrate(sid, target)
                    migrated_at[sid] = (source, target)
        step_seconds = now() - t_step

        queries = await asyncio.gather(*(service.query(sid)
                                         for sid in ids))
        digests = {sid: q["digest"] for sid, q in zip(ids, queries)}
        stats = await service.stats()

        verification = verify_against_twins(opts, ids, digests,
                                            migrate_ids)

        await asyncio.gather(*(service.destroy(sid) for sid in ids))
    finally:
        await service.close()

    frames_total = opts.sessions * opts.frames
    summary = stats["frame_time_summary"]
    report = {
        "kind": "serve_loadtest",
        "params": {
            "sessions": opts.sessions,
            "workers": opts.workers,
            "frames_per_session": opts.frames,
            "round_frames": opts.round_frames,
            "scenario": opts.scenario,
            "scale": opts.scale,
            "backend": opts.backend,
            "backlog": opts.backlog,
            "migrated_sessions": len(migrated_at),
        },
        "create_seconds": create_seconds,
        "step_seconds": step_seconds,
        "frames_total": frames_total,
        "throughput_fps": (frames_total / step_seconds
                           if step_seconds > 0 else 0.0),
        "frame_time_summary": summary,
        "counters": stats["counters"],
        "queue_depth_peak": stats["queue_depth_peak"],
        "shards": [
            {"shard_id": shard["shard_id"],
             "counters": shard["counters"],
             "frame_time_summary": shard["frame_time_summary"]}
            for shard in stats["shards"]
        ],
        "migration": {
            "count": len(migrated_at),
            "moves": {sid: list(move)
                      for sid, move in migrated_at.items()},
            **verification,
        },
        "acceptance": {
            "sessions": opts.sessions,
            "workers": opts.workers,
            "p95_frame_seconds": summary["p95_s"],
        },
    }
    return report


def verify_against_twins(opts, ids, digests, migrate_ids) -> dict:
    """Replay chosen sessions locally (no serve, no migration) and
    compare state digests — the bit-identity acceptance check."""
    chosen = list(migrate_ids[:opts.verify])
    for sid in ids:
        if len(chosen) >= opts.verify:
            break
        if sid not in chosen:
            chosen.append(sid)
    mismatches = []
    for sid in chosen:
        index = ids.index(sid)
        twin = Session.create(build_spec(opts, index))
        twin.step(opts.frames)
        if twin.state_digest() != digests[sid]:
            mismatches.append(sid)
        twin.close()
    return {
        "verified_sessions": chosen,
        "verified": len(chosen) > 0 and not mismatches,
        "mismatches": mismatches,
        "divergence": 0.0 if not mismatches else float(
            len(mismatches)),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadtest",
        description="Drive the sharded simulation service and emit "
                    "serve_loadtest.json")
    parser.add_argument("--sessions", type=int, default=100)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--frames", type=int, default=12,
                        help="frames each session advances in total")
    parser.add_argument("--round-frames", type=int, default=3,
                        help="frames per batched step command")
    parser.add_argument("--scenario", default="periodic",
                        help="scenario name, or comma list cycled "
                             "across sessions")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--backend", default="numpy")
    parser.add_argument("--backlog", type=int, default=256)
    parser.add_argument("--migrate", type=int, default=2,
                        help="sessions to migrate mid-run")
    parser.add_argument("--verify", type=int, default=2,
                        help="sessions replayed locally for the "
                             "bit-identity check")
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--out", default="serve_loadtest.json")
    return parser


def main(argv=None) -> int:
    opts = build_parser().parse_args(argv)
    report = asyncio.run(run_loadtest(opts))
    with open(opts.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    summary = report["frame_time_summary"]
    print(f"serve loadtest: {opts.sessions} sessions on "
          f"{opts.workers} workers, "
          f"{report['frames_total']} frames in "
          f"{report['step_seconds']:.2f}s "
          f"({report['throughput_fps']:.1f} fps)")
    print(f"  frame time p50={summary['p50_s'] * 1e3:.2f}ms "
          f"p95={summary['p95_s'] * 1e3:.2f}ms "
          f"p99={summary['p99_s'] * 1e3:.2f}ms")
    migration = report["migration"]
    print(f"  migrations={migration['count']} "
          f"verified={migration['verified']} "
          f"divergence={migration['divergence']}")
    print(f"  wrote {opts.out}")
    return 0 if (migration["count"] == 0 or migration["verified"]) \
        else 1


if __name__ == "__main__":
    raise SystemExit(main())
