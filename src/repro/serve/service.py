"""The client API of the simulation service.

:class:`SimService` is the one way to talk to a running
:class:`~repro.serve.cluster.SimCluster`: every verb is a coroutine
that goes through :meth:`SimService.call` — submit to the owning
shard's bounded queue, await the worker's reply future
(``asyncio.wrap_future``) under the cluster's deadline, re-raise a
typed error — so hundreds of in-flight commands interleave on one
event loop while the physics runs in the worker processes.
:func:`serve_tcp` optionally exposes the same verbs as a JSON-lines
TCP endpoint for out-of-process clients.
"""

from __future__ import annotations

import asyncio
import json

from . import protocol
from .cluster import SimCluster
from .metrics import merge_snapshots

#: Longest request line :func:`serve_tcp` reads. A ``restore`` line
#: carries a whole checkpoint; a cloth session's passes asyncio's
#: 64 KiB default stream limit even at test scale.
MAX_LINE_BYTES = 64 * 1024 * 1024


class SimService:
    """Async session API over a running cluster.

    Construct with an existing :class:`SimCluster` (or let
    :meth:`start` build one), then ``await`` the verbs. Backpressure
    surfaces synchronously at submit time; everything else resolves
    through the reply future.
    """

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster

    @classmethod
    def start(cls, n_shards: int = 2, **cluster_kwargs) -> "SimService":
        """Spin up a cluster and wrap it (blocking process start)."""
        return cls(SimCluster(n_shards=n_shards, **cluster_kwargs))

    async def call(self, verb: str, session_id: str = None,
                   shard_id: int = None, **args):
        """Send one shard verb and return its result.

        Routed by ``session_id`` unless ``shard_id`` names the shard.
        Raises the reply's typed error, or
        :class:`~repro.serve.protocol.ShardTimeoutError` when no reply
        arrives within the cluster's ``request_timeout``.
        """
        cluster = self.cluster
        future = cluster.submit(shard_id, verb, session_id, **args)
        try:
            reply = await asyncio.wait_for(
                asyncio.wrap_future(future),
                timeout=cluster.request_timeout)
        except asyncio.TimeoutError:
            cluster.abandon(future)
            raise protocol.ShardTimeoutError(
                f"no reply to {verb!r} (session {session_id!r}) within "
                f"{cluster.request_timeout}s") from None
        return protocol.raise_if_error(reply)

    # -- session verbs --------------------------------------------------
    async def create_session(self, session_id: str, spec) -> dict:
        """Create ``session_id`` from a SessionSpec (or its dict)."""
        spec_dict = spec if isinstance(spec, dict) else spec.to_dict()
        return await self.call("create", session_id, spec=spec_dict)

    async def step(self, session_id: str, frames: int = 1) -> dict:
        return await self.call("step", session_id, frames=frames)

    async def query(self, session_id: str) -> dict:
        return await self.call("query", session_id)

    async def checkpoint(self, session_id: str) -> dict:
        return await self.call("checkpoint", session_id)

    async def restore_session(self, session_id: str, payload: dict,
                              shard_id: int = None) -> dict:
        """Restore a checkpoint as ``session_id``; optionally pin it to
        an explicit shard (the migration path)."""
        return await self.call("restore", session_id, shard_id,
                               payload=payload)

    async def destroy(self, session_id: str) -> dict:
        return await self.call("destroy", session_id)

    # -- composite verbs ------------------------------------------------
    async def migrate(self, session_id: str,
                      target_shard: int) -> dict:
        """Move a live session: checkpoint -> destroy -> restore.

        The checkpoint carries the full build state and uid base, so
        the restored session continues bit-identically on the target;
        other sessions' traffic interleaves between the three hops.
        """
        if target_shard == self.cluster.routing.shard_of(session_id):
            return await self.query(session_id)
        payload = await self.checkpoint(session_id)
        await self.destroy(session_id)
        return await self.restore_session(session_id, payload,
                                          target_shard)

    async def stats(self) -> dict:
        """Cluster-wide metrics: per-shard snapshots plus the merge."""
        snapshots = await asyncio.gather(*(
            self.call("stats", shard_id=shard_id)
            for shard_id in range(self.cluster.n_shards)))
        return merge_snapshots(list(snapshots))

    async def close(self):
        await asyncio.get_event_loop().run_in_executor(
            None, self.cluster.close)

    async def __aenter__(self) -> "SimService":
        return self

    async def __aexit__(self, exc_type, exc, tb):
        await self.close()

    # -- wire-level entry (shared by the TCP server and tests) ----------
    async def handle_message(self, msg: dict) -> dict:
        """Route one wire request dict; always returns a reply dict."""
        if not isinstance(msg, dict):
            return protocol.error_reply(-1, protocol.WorkerError(
                f"request must be a JSON object, got "
                f"{type(msg).__name__}"))
        req_id = msg.get("req_id", -1)
        verb = msg.get("verb")
        session_id = msg.get("session_id")
        args = msg.get("args") or {}
        try:
            if verb == "migrate":
                result = await self.migrate(session_id,
                                            int(args["target_shard"]))
            elif verb == "stats":
                result = await self.stats()
            elif verb in protocol.SESSION_VERBS:
                result = await self.call(verb, session_id, **args)
            else:
                raise protocol.UnknownVerbError(
                    f"unknown verb {verb!r}")
        except Exception as exc:  # noqa: BLE001 - typed wire reply
            return protocol.error_reply(req_id, exc)
        return protocol.ok_reply(req_id, result)


async def serve_tcp(service: SimService, host: str = "127.0.0.1",
                    port: int = 0):
    """Expose ``service`` as a JSON-lines TCP endpoint.

    One request dict per line, one reply dict per line; concurrent
    requests from one connection interleave (each line spawns a task).
    A line longer than :data:`MAX_LINE_BYTES` gets a typed error frame
    and closes the connection. Returns the listening ``asyncio.Server``
    (``server.sockets[0].getsockname()`` reveals the bound port when
    ``port=0``).
    """

    async def handle_connection(reader, writer):
        write_lock = asyncio.Lock()

        async def send(reply):
            async with write_lock:
                writer.write(json.dumps(reply).encode("utf-8") + b"\n")
                await writer.drain()

        async def respond(msg):
            await send(await service.handle_message(msg))

        tasks = {}  # in-flight replies, as an insertion-ordered set
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the limit: the stream cannot resynchronise
                    # mid-line, so answer once and hang up.
                    await send(protocol.error_reply(
                        -1, protocol.WorkerError(
                            f"request line exceeds {MAX_LINE_BYTES}"
                            f" bytes")))
                    break
                if not line:
                    break
                try:
                    msg = json.loads(line)
                except json.JSONDecodeError as exc:
                    await send(protocol.error_reply(
                        -1, protocol.WorkerError(f"bad JSON: {exc}")))
                    continue
                task = asyncio.ensure_future(respond(msg))
                tasks[task] = None
                task.add_done_callback(tasks.pop)
        finally:
            for task in tasks:
                task.cancel()
            writer.close()

    return await asyncio.start_server(handle_connection, host, port,
                                      limit=MAX_LINE_BYTES)
