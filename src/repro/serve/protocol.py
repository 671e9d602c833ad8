"""Wire protocol for the sharded simulation service.

Everything crossing a process boundary is a JSON-native dict, so the
same messages flow over a ``multiprocessing.Queue``, a TCP socket, or a
test harness unchanged. A request names a *verb* plus its arguments; a
reply carries either ``result`` or a typed ``error`` that the client
re-raises as the matching exception class — backpressure, unknown
sessions, and worker crashes all surface as distinct types instead of
one opaque ``RuntimeError``.
"""

from __future__ import annotations

#: Verbs addressed to one session; a client may send any of them.
SESSION_VERBS = ("create", "step", "query", "checkpoint", "restore",
                 "destroy")

#: Verbs a shard worker understands.
VERBS = SESSION_VERBS + ("stats", "shutdown")


class ServeError(RuntimeError):
    """Base class for every typed service error."""


class UnknownSessionError(ServeError):
    """The session id is not hosted on the addressed shard."""


class SessionExistsError(ServeError):
    """A session with this id already exists on the shard."""


class UnknownVerbError(ServeError):
    """The request named a verb outside :data:`VERBS`."""


class BackpressureError(ServeError):
    """The shard's command queue is full; retry later or shed load."""


class ShardTimeoutError(ServeError):
    """No reply arrived within the deadline (worker wedged or dead)."""


class ShardDownError(ServeError):
    """The addressed worker process has exited."""


class WorkerError(ServeError):
    """The worker raised while executing the request; message carries
    the original type and text."""


class BadRequestError(ServeError, ValueError):
    """The service refused the request before any shard saw it: a
    ``shard_id`` on a verb routed by session, or a shard out of range.
    Also a ``ValueError``, which in-process callers catch."""


#: Error-type registry: wire name -> exception class. Replies carry the
#: name; clients map it back through this table (unknown names decode
#: as :class:`WorkerError` so protocol drift degrades, not crashes).
ERROR_TYPES = {cls.__name__: cls for cls in ServeError.__subclasses__()}


def request(req_id: int, verb: str, session_id: str = None,
            **args) -> dict:
    """Build a request message."""
    msg = {"req_id": req_id, "verb": verb}
    if session_id is not None:
        msg["session_id"] = session_id
    if args:
        msg["args"] = args
    return msg


def ok_reply(req_id: int, result) -> dict:
    return {"req_id": req_id, "ok": True, "result": result}


def error_reply(req_id: int, exc: BaseException) -> dict:
    """Encode ``exc`` for the wire, preserving its service type."""
    if isinstance(exc, ServeError):
        name = type(exc).__name__
        message = str(exc)
    else:
        name = "WorkerError"
        message = f"{type(exc).__name__}: {exc}"
    return {"req_id": req_id, "ok": False,
            "error": {"type": name, "message": message}}


def raise_if_error(reply: dict):
    """Re-raise a reply's error as its typed exception; returns the
    result payload otherwise."""
    if reply.get("ok"):
        return reply.get("result")
    error = reply.get("error") or {}
    cls = ERROR_TYPES.get(error.get("type"), WorkerError)
    raise cls(error.get("message", "unspecified worker error"))
