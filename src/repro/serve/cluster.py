"""Multi-process simulation cluster: the transport under ``SimService``.

:class:`SimCluster` owns N shard worker processes, each with a bounded
command inbox, plus one shared outbox drained by a reader thread that
resolves :class:`concurrent.futures.Future` objects. Submission is
non-blocking: a full inbox raises
:class:`~repro.serve.protocol.BackpressureError` immediately instead of
stalling the caller, and a dead worker raises
:class:`~repro.serve.protocol.ShardDownError`.

Sessions route to shards through a :class:`~repro.serve.routing
.RoutingTable` — hash placement with migration overrides. This module
is the one place a verb meets that table: :meth:`SimCluster.submit`
picks the shard, and the reader applies the verb's effect on the table
when its reply comes back ok (``restore`` pins the session to the shard
that restored it, ``destroy`` drops its override). The client API —
the named verbs, migration, merged stats, deadlines — is
:class:`~repro.serve.service.SimService`.

Workers are started *before* the reader thread so fork-based start
methods never fork a process while this process holds live threads.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import queue
import threading

from . import protocol
from .routing import RoutingTable
from .shard import shard_main


def _pick_start_method() -> str:
    # fork shares the already-imported interpreter image (fast start);
    # fall back to spawn where fork is unavailable (e.g. macOS default).
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


class SimCluster:
    """Shard processes, their queues, reply futures and the routing
    table; see the module docstring."""

    def __init__(self, n_shards: int = 2, backlog: int = 64,
                 request_timeout: float = 120.0):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.n_shards = n_shards
        self.request_timeout = request_timeout
        self.routing = RoutingTable(n_shards)

        ctx = multiprocessing.get_context(_pick_start_method())
        self._inboxes = [ctx.Queue(maxsize=backlog)
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
        self._pending = {}  # req_id -> (Future, routing effect)
        self._closed = False
        self._reader = threading.Thread(target=self._read_replies,
                                        daemon=True,
                                        name="repro-serve-reader")
        self._reader.start()

    # -- reply plumbing -------------------------------------------------
    def _read_replies(self):
        while True:
            msg = self._outbox.get()
            if msg is None:  # shutdown sentinel from close()
                break
            with self._lock:
                future, routed = self._pending.pop(msg.get("req_id"),
                                                   (None, None))
            # The table follows what the shard did — before the waiter
            # can observe the reply, and even if it stopped waiting.
            # This thread is the table's only writer (one dict
            # operation per reply); ``submit`` only reads it.
            if routed is not None and msg.get("ok"):
                routed()
            if future is not None and not future.cancelled():
                future.set_result(msg)

    # -- submission -----------------------------------------------------
    def submit(self, shard_id: int, verb: str, session_id: str = None,
               **args) -> "concurrent.futures.Future":
        """Enqueue a request; the future resolves with the raw reply.

        ``shard_id=None`` routes to the shard that owns ``session_id``;
        an explicit shard is a migration's target or one shard's
        ``stats``. Raises :class:`BackpressureError` if the shard inbox
        is full and :class:`ShardDownError` if the worker process has
        exited.
        """
        if self._closed:
            raise protocol.ShardDownError("cluster is closed")
        if shard_id is None:
            if session_id is None:
                raise protocol.UnknownSessionError(
                    f"verb {verb!r} requires a session_id")
            shard_id = self.routing.shard_of(session_id)
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard {shard_id} out of range")
        if not self._procs[shard_id].is_alive():
            raise protocol.ShardDownError(
                f"shard {shard_id} process has exited")
        routed = None
        if verb == "restore":
            routed = functools.partial(self.routing.assign, session_id,
                                       shard_id)
        elif verb == "destroy":
            routed = functools.partial(self.routing.forget, session_id)
        with self._lock:
            req_id = self._next_req_id
            self._next_req_id += 1
            future = concurrent.futures.Future()
            self._pending[req_id] = (future, routed)
        msg = protocol.request(req_id, verb, session_id, **args)
        try:
            self._inboxes[shard_id].put_nowait(msg)
        except queue.Full:
            with self._lock:
                self._pending.pop(req_id, None)
            raise protocol.BackpressureError(
                f"shard {shard_id} inbox is full; retry or shed load")
        return future

    def abandon(self, future):
        """Forget a request whose deadline passed: nobody waits for
        its reply any more, so a late one is dropped."""
        with self._lock:
            self._pending = {req_id: entry for req_id, entry
                             in self._pending.items()
                             if entry[0] is not future}

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: float = 10.0):
        """Shut down workers, reader thread, and queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard_id, proc in enumerate(self._procs):
            if not proc.is_alive():
                continue
            try:
                self._inboxes[shard_id].put(
                    protocol.request(-1, "shutdown"), timeout=timeout)
            except queue.Full:
                pass
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
        self._outbox.put(None)  # unblock the reader thread
        self._reader.join(timeout=timeout)
        with self._lock:
            pending, self._pending = self._pending, {}
        for future, _routed in pending.values():
            if not future.done():
                future.set_exception(
                    protocol.ShardDownError("cluster closed"))

    def __enter__(self) -> "SimCluster":
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
