"""The simulation service: shard processes and their async client API.

:class:`SimService` owns N shard worker processes, each with a bounded
command inbox, plus one shared outbox drained by a reader thread that
resolves :class:`concurrent.futures.Future` objects. Every verb is a
coroutine that goes through :meth:`SimService.call` — submit to the
owning shard's inbox (``put_nowait``: a full inbox raises
:class:`~repro.serve.protocol.BackpressureError` at once, a dead worker
:class:`~repro.serve.protocol.ShardDownError`), await the reply future
(``asyncio.wrap_future``) under the service's deadline, re-raise a
typed error — so hundreds of in-flight commands interleave on one event
loop while the physics runs in the worker processes.

Routing is decided here and nowhere else. A session's home shard is
:func:`shard_for`, a hash of its id; a migration overrides it. The
reader thread is the overrides' only writer: it applies a verb's effect
when its reply comes back ok (``restore`` pins the session to the shard
that restored it, ``destroy`` drops its override).

Workers are started *before* the reader thread so fork-based start
methods never fork a process while this process holds live threads.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import hashlib
import json
import multiprocessing
import queue
import threading

from . import protocol
from .metrics import merge_snapshots
from .shard import shard_main

#: Longest request line :func:`serve_tcp` reads. A ``restore`` line
#: carries a whole checkpoint; a cloth session's passes asyncio's
#: 64 KiB default stream limit even at test scale.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Commands a shard's inbox holds before :meth:`SimService.submit`
#: raises :class:`~repro.serve.protocol.BackpressureError`.
BACKLOG = 64

#: Seconds :meth:`SimService.call` waits for a reply.
REQUEST_TIMEOUT = 120.0

#: Seconds :meth:`SimService.close` waits for each worker and the reader.
SHUTDOWN_TIMEOUT = 10.0

# fork shares the already-imported interpreter image (fast start); fall
# back to spawn where fork is unavailable (e.g. macOS default).
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else "spawn")


def shard_for(session_id: str, n_shards: int) -> int:
    """Home shard of ``session_id`` among ``n_shards``: the first 8
    bytes of its SHA-256, mod the shard count, so every front end (and
    every test) computes the same placement with no coordination."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    digest = hashlib.sha256(session_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


class SimService:
    """Shard processes plus the async session API over them.

    Build with :meth:`start`, then ``await`` the verbs. Backpressure
    surfaces synchronously at submit time; everything else resolves
    through the reply future.
    """

    def __init__(self, n_shards: int):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.n_shards = n_shards
        self.overrides = {}  # session_id -> shard_id, off its home shard

        ctx = multiprocessing.get_context(_START_METHOD)
        self._inboxes = [ctx.Queue(maxsize=BACKLOG)
                         for _ in range(n_shards)]
        self._outbox = ctx.Queue()
        self._procs = [
            ctx.Process(target=shard_main,
                        args=(shard_id, self._inboxes[shard_id],
                              self._outbox),
                        daemon=True, name=f"repro-shard-{shard_id}")
            for shard_id in range(n_shards)
        ]
        for proc in self._procs:
            proc.start()

        self._lock = threading.Lock()
        self._next_req_id = 0
        self._pending = {}  # req_id -> (Future, routing effect or None)
        self._closed = False
        self._reader = threading.Thread(target=self._read_replies,
                                        daemon=True,
                                        name="repro-serve-reader")
        self._reader.start()

    @classmethod
    def start(cls, n_shards: int = 2) -> "SimService":
        """Start ``n_shards`` worker processes (blocking)."""
        return cls(n_shards)

    # -- routing --------------------------------------------------------
    def shard_of(self, session_id: str) -> int:
        """The shard that hosts ``session_id`` now."""
        override = self.overrides.get(session_id)
        if override is not None:
            return override
        return shard_for(session_id, self.n_shards)

    def _read_replies(self):
        while True:
            msg = self._outbox.get()
            if msg is None:  # shutdown sentinel from close()
                break
            with self._lock:
                future, effect = self._pending.pop(msg.get("req_id"),
                                                   (None, None))
            # Routing follows what the shard did — before the waiter
            # can observe the reply, and even if it stopped waiting.
            # ``effect`` is (session, its shard now; None sends it home).
            if effect is not None and msg.get("ok"):
                session_id, shard_id = effect
                if shard_id in (None, shard_for(session_id,
                                                self.n_shards)):
                    self.overrides.pop(session_id, None)
                else:
                    self.overrides[session_id] = shard_id
            if future is not None and not future.cancelled():
                future.set_result(msg)

    def submit(self, shard_id: int, verb: str, session_id: str = None,
               **args):
        """Enqueue a request without blocking; returns ``(req_id,
        future)``, the future resolving with the raw reply.

        ``shard_id=None`` routes to the shard that hosts ``session_id``;
        an explicit shard is a migration's target or one shard's
        ``stats``.
        """
        if self._closed:
            raise protocol.ShardDownError("service is closed")
        if shard_id is None:
            if session_id is None:
                raise protocol.UnknownSessionError(
                    f"verb {verb!r} requires a session_id")
            shard_id = self.shard_of(session_id)
        if not 0 <= shard_id < self.n_shards:
            raise protocol.BadRequestError(
                f"shard {shard_id} out of range [0, {self.n_shards})")
        if not self._procs[shard_id].is_alive():
            raise protocol.ShardDownError(
                f"shard {shard_id} process has exited")
        effect = ((session_id, shard_id) if verb == "restore"
                  else (session_id, None) if verb == "destroy" else None)
        with self._lock:
            req_id = self._next_req_id
            self._next_req_id += 1
            future = concurrent.futures.Future()
            self._pending[req_id] = (future, effect)
        msg = protocol.request(req_id, verb, session_id, **args)
        try:
            self._inboxes[shard_id].put_nowait(msg)
        except queue.Full:
            with self._lock:
                self._pending.pop(req_id, None)
            raise protocol.BackpressureError(
                f"shard {shard_id} inbox is full; retry or shed load")
        return req_id, future

    async def call(self, verb: str, session_id: str = None,
                   shard_id: int = None, **args):
        """Send one shard verb and return its result.

        Routed by ``session_id`` unless ``shard_id`` names the shard,
        which only ``restore`` (a migration's target) and ``stats`` may
        do: a session placed anywhere else would be unreachable.
        Raises the reply's typed error, or
        :class:`~repro.serve.protocol.ShardTimeoutError` when no reply
        arrives within :data:`REQUEST_TIMEOUT` (a late one is dropped).
        """
        if (shard_id is not None and verb != "restore"
                and verb in protocol.SESSION_VERBS):
            raise protocol.BadRequestError(
                f"verb {verb!r} is routed by session_id; only 'restore'"
                f" takes a shard_id")
        req_id, future = self.submit(shard_id, verb, session_id, **args)
        try:
            reply = await asyncio.wait_for(asyncio.wrap_future(future),
                                           timeout=REQUEST_TIMEOUT)
        except asyncio.TimeoutError:
            with self._lock:
                self._pending.pop(req_id, None)
            raise protocol.ShardTimeoutError(
                f"no reply to {verb!r} (session {session_id!r}) within "
                f"{REQUEST_TIMEOUT}s") from None
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
        the restored session continues bit-identically on the target.
        A restore the target refuses goes back to the source before
        the error re-raises; one that times out is left alone (the
        target may still apply it). If the source refuses that restore
        too, the session is on no shard: the re-raised error carries
        its checkpoint as ``checkpoint``, for the caller to restore
        later.
        """
        source = self.shard_of(session_id)
        if target_shard == source:
            return await self.query(session_id)
        payload = await self.checkpoint(session_id)
        await self.destroy(session_id)
        try:
            return await self.restore_session(session_id, payload,
                                              target_shard)
        except protocol.ShardTimeoutError:
            raise
        except (protocol.ServeError, ValueError) as exc:
            try:
                await self.restore_session(session_id, payload, source)
            except protocol.ServeError:
                exc.checkpoint = payload
            raise

    async def stats(self) -> dict:
        """Service-wide metrics: per-shard snapshots plus the merge."""
        snapshots = await asyncio.gather(*(
            self.call("stats", shard_id=shard_id)
            for shard_id in range(self.n_shards)))
        return merge_snapshots(list(snapshots))

    # -- lifecycle ------------------------------------------------------
    def _shutdown(self):
        """Stop workers, reader thread and queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard_id, proc in enumerate(self._procs):
            if not proc.is_alive():
                continue
            try:
                self._inboxes[shard_id].put(
                    protocol.request(-1, "shutdown"),
                    timeout=SHUTDOWN_TIMEOUT)
            except queue.Full:
                pass
        for proc in self._procs:
            proc.join(timeout=SHUTDOWN_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=SHUTDOWN_TIMEOUT)
        # A worker killed while it held a queue's write lock leaves that
        # queue's feeder thread blocked for good, and interpreter exit
        # joins feeder threads: let exit skip them.
        for box in (*self._inboxes, self._outbox):
            box.cancel_join_thread()
        self._outbox.put(None)  # unblock the reader thread
        self._reader.join(timeout=SHUTDOWN_TIMEOUT)
        with self._lock:
            pending, self._pending = self._pending, {}
        for future, _effect in pending.values():
            if not future.done():
                future.set_exception(
                    protocol.ShardDownError("service closed"))

    async def close(self):
        await asyncio.get_running_loop().run_in_executor(
            None, self._shutdown)

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


async def serve_tcp(service: SimService, host: str, port: int):
    """Expose ``service`` as a JSON-lines TCP endpoint on ``host``.

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
