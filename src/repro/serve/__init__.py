"""``repro.serve`` — sharded async multi-world simulation service.

Many independent simulation sessions run across worker processes (each
worker stepping its residents one at a time, each on its own clock)
behind an asyncio front-end. Sessions route to shards deterministically
(:func:`shard_for`, plus migration overrides), migrate between shards
via checkpoint/restore with bit-identical replay, and degrade gracefully
under load (quarantine, bounded-queue backpressure, per-session
watchdogs). :class:`~repro.serve.service.SimService` owns the shard
processes and the routing, and is the client API (:func:`serve_tcp`
puts it on a socket)::

    import asyncio
    from repro.api import SessionSpec
    from repro.serve import SimService

    async def main():
        async with SimService.start(n_shards=2) as service:
            await service.create_session(
                "demo", SessionSpec("periodic", scale=0.05,
                                    backend="numpy"))
            await service.step("demo", frames=10)
            print((await service.query("demo"))["digest"])

    asyncio.run(main())

A full shard inbox raises :class:`BackpressureError` before anything is
queued; clients re-issue the call after a backoff (``docs/serve.md``).
Served-fleet performance is the ``fleet_serve`` workload of
``python bench/run.py``.
"""

from .metrics import (FrameTimeHistogram, ShardMetrics,
                      merge_snapshots)
from .protocol import (BackpressureError, BadRequestError, ServeError,
                       SessionExistsError, ShardDownError,
                       ShardTimeoutError, UnknownSessionError,
                       UnknownVerbError, WorkerError)
from .service import SimService, serve_tcp, shard_for
from .shard import ShardWorker

__all__ = [
    "SimService",
    "serve_tcp",
    "ShardWorker",
    "shard_for",
    "FrameTimeHistogram",
    "ShardMetrics",
    "merge_snapshots",
    "ServeError",
    "UnknownSessionError",
    "SessionExistsError",
    "UnknownVerbError",
    "BackpressureError",
    "ShardTimeoutError",
    "ShardDownError",
    "WorkerError",
    "BadRequestError",
]
