"""Shard worker: one process stepping many sessions.

A worker owns a disjoint set of sessions and drives them through
*frame rounds* instead of a global barrier: each round advances every
session that has pending step work by one rendered frame. Each session
steps alone, through :meth:`~repro.api.Session.step`, between its own
pair of clock reads, so its frame time, histogram and quarantine streak
measure that session and no other. Commands arrive on the shard's
bounded inbox and queue per session in strict FIFO order — two shards
never wait on each other.

Graceful degradation is per session:

* sessions with a watchdog spec step under the rollback ladder;
* sessions whose frames run persistently slow are *quarantined* — they
  step only every ``QUARANTINE_BACKOFF``-th round at degraded FPS (so
  they stop lengthening everyone's round), returning once they sustain
  fast frames again;
* the bounded inbox turns overload into a typed
  :class:`~repro.serve.protocol.BackpressureError` at the front-end
  instead of unbounded memory growth here.
"""

from __future__ import annotations

import collections
import queue

from ..api import Session, SessionSpec
from . import protocol
from .metrics import ShardMetrics, now


#: How long an idle worker blocks on its inbox before looking again.
IDLE_POLL_SECONDS = 0.02
#: A frame slower than this counts towards quarantine.
SLOW_FRAME_SECONDS = 0.25
#: Consecutive slow frames that quarantine a session.
QUARANTINE_AFTER = 3
#: Consecutive fast probe frames that release it.
RELEASE_AFTER = 2
#: A quarantined session steps only every this-many-th frame round.
QUARANTINE_BACKOFF = 4


class SessionRuntime:
    """A hosted session plus its command queue and health state."""

    def __init__(self, session_id: str, session: Session):
        self.session_id = session_id
        self.session = session
        self.pending = collections.deque()  # FIFO of queued requests
        self.step_job = None  # {"req_id": int, "remaining": int}
        self.quarantined = False
        self.slow_streak = 0
        self.fast_streak = 0
        self.watchdog_events_seen = 0


class ShardWorker:
    """The per-process service loop; see module docstring."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.sessions = {}  # session_id -> SessionRuntime
        self.metrics = ShardMetrics(shard_id)
        self.round_index = 0
        self.running = True

    # -- main loop ------------------------------------------------------
    def run(self, inbox, outbox):
        while self.running:
            self._drain(inbox, outbox)
            if self._has_step_work():
                self._frame_round(outbox)

    def _has_step_work(self) -> bool:
        return any(rt.step_job is not None
                   for rt in self.sessions.values())

    def _drain(self, inbox, outbox):
        """Pull every queued request; block briefly only when idle."""
        batch = []
        try:
            if self._has_step_work():
                batch.append(inbox.get_nowait())
            else:
                batch.append(inbox.get(timeout=IDLE_POLL_SECONDS))
            while True:
                batch.append(inbox.get_nowait())
        except queue.Empty:
            pass
        if not batch:
            return
        self.metrics.observe_queue_depth(len(batch))
        for msg in batch:
            self._dispatch(msg, outbox)

    # -- dispatch -------------------------------------------------------
    def _dispatch(self, msg: dict, outbox):
        req_id = msg.get("req_id", -1)
        self.metrics.count("commands")
        try:
            self._dispatch_inner(msg, outbox)
        except Exception as exc:  # noqa: BLE001 - becomes a typed reply
            self.metrics.count("errors")
            outbox.put(protocol.error_reply(req_id, exc))

    def _dispatch_inner(self, msg: dict, outbox):
        verb = msg.get("verb")
        req_id = msg.get("req_id", -1)
        if verb not in protocol.VERBS:
            raise protocol.UnknownVerbError(f"unknown verb {verb!r}")

        if verb == "shutdown":
            self.running = False
            outbox.put(protocol.ok_reply(req_id,
                                         {"shard_id": self.shard_id}))
            return
        if verb == "stats":
            outbox.put(protocol.ok_reply(req_id,
                                         self.metrics.snapshot()))
            return

        session_id = msg.get("session_id")
        if session_id is None:
            raise protocol.UnknownSessionError(
                f"verb {verb!r} requires a session_id")
        runtime = self.sessions.get(session_id)

        if verb in ("create", "restore"):
            if runtime is not None:
                raise protocol.SessionExistsError(
                    f"session {session_id!r} already on shard "
                    f"{self.shard_id}")
            args = msg.get("args") or {}
            if verb == "create":
                session = Session.create(
                    SessionSpec.from_dict(args["spec"]))
                self.metrics.count("sessions_created")
            else:
                session = Session.restore(args["payload"])
                self.metrics.count("sessions_restored")
            self.sessions[session_id] = SessionRuntime(session_id,
                                                       session)
            outbox.put(protocol.ok_reply(req_id, self._describe(
                self.sessions[session_id])))
            return

        if runtime is None:
            raise protocol.UnknownSessionError(
                f"no session {session_id!r} on shard {self.shard_id}")
        # Strict per-session FIFO: the command joins the session's
        # queue and executes only once everything ahead of it (pending
        # step frames included) has finished.
        runtime.pending.append(msg)
        self._pump(runtime, outbox)

    def _pump(self, runtime: SessionRuntime, outbox):
        """Execute queued commands until a step job takes over.

        Runs under ``_dispatch`` and, after a step job ends, under the
        frame round, so it guards each command itself: one that raises
        gets a typed error reply and the commands behind it still run.
        """
        while runtime.pending and runtime.step_job is None:
            msg = runtime.pending.popleft()
            try:
                self._execute(runtime, msg, outbox)
            except Exception as exc:  # noqa: BLE001 - becomes a typed reply
                self.metrics.count("errors")
                outbox.put(protocol.error_reply(msg.get("req_id", -1),
                                                exc))

    def _execute(self, runtime: SessionRuntime, msg: dict, outbox):
        verb = msg["verb"]
        req_id = msg.get("req_id", -1)
        args = msg.get("args") or {}
        if verb == "step":
            frames = int(args.get("frames", 1))
            if frames <= 0:
                outbox.put(protocol.ok_reply(
                    req_id, self._describe(runtime)))
            else:
                runtime.step_job = {"req_id": req_id,
                                    "remaining": frames}
        elif verb == "query":
            outbox.put(protocol.ok_reply(
                req_id, runtime.session.describe()))
        elif verb == "checkpoint":
            outbox.put(protocol.ok_reply(
                req_id, runtime.session.checkpoint()))
        elif verb == "destroy":
            runtime.session.close()
            self.sessions.pop(runtime.session_id, None)
            self.metrics.forget_session(runtime.session_id)
            self.metrics.count("sessions_destroyed")
            outbox.put(protocol.ok_reply(
                req_id, self._describe(runtime)))
            # No round will visit this runtime again: refuse what
            # was queued behind the destroy now, in order.
            while runtime.pending:
                late = runtime.pending.popleft()
                self.metrics.count("errors")
                outbox.put(protocol.error_reply(
                    late.get("req_id", -1),
                    protocol.UnknownSessionError(
                        f"session {runtime.session_id!r} was "
                        f"destroyed before {late['verb']!r} ran")))
        else:
            raise protocol.UnknownVerbError(
                f"verb {verb!r} cannot be queued")

    # -- frame rounds ---------------------------------------------------
    def _frame_round(self, outbox):
        """Advance every stepping session by one rendered frame."""
        self.round_index += 1
        # Degraded cadence: a quarantined session gets a probe frame
        # every ``QUARANTINE_BACKOFF`` rounds.
        probing = self.round_index % QUARANTINE_BACKOFF == 0
        # A finished step job runs the commands queued behind it, and a
        # destroy among them leaves ``self.sessions``: iterate a copy.
        for runtime in list(self.sessions.values()):
            if runtime.step_job is None \
                    or (runtime.quarantined and not probing):
                continue
            start = now()
            runtime.session.step(1)
            self._frame_done(runtime, now() - start, outbox)

    def _frame_done(self, runtime: SessionRuntime, seconds: float,
                    outbox):
        self.metrics.observe_frame(runtime.session_id, seconds)
        # No verb reads a past frame's report; keeping them all would
        # grow the shard with uptime.
        del runtime.session.reports[:-1]
        self._note_watchdog(runtime)
        self._update_quarantine(runtime, seconds)
        job = runtime.step_job
        job["remaining"] -= 1
        if job["remaining"] <= 0:
            runtime.step_job = None
            outbox.put(protocol.ok_reply(job["req_id"],
                                         self._describe(runtime)))
            self._pump(runtime, outbox)

    def _note_watchdog(self, runtime: SessionRuntime):
        health = runtime.session.health
        if health is None:
            return
        fresh = len(health) - runtime.watchdog_events_seen
        if fresh > 0:
            runtime.watchdog_events_seen = len(health)
            self.metrics.count("watchdog_events", fresh)

    def _update_quarantine(self, runtime: SessionRuntime,
                           seconds: float):
        if seconds > SLOW_FRAME_SECONDS:
            runtime.slow_streak += 1
            runtime.fast_streak = 0
        else:
            runtime.fast_streak += 1
            runtime.slow_streak = 0
        if not runtime.quarantined \
                and runtime.slow_streak >= QUARANTINE_AFTER:
            runtime.quarantined = True
            runtime.fast_streak = 0
            self.metrics.count("quarantines")
        elif runtime.quarantined \
                and runtime.fast_streak >= RELEASE_AFTER:
            runtime.quarantined = False
            runtime.slow_streak = 0
            self.metrics.count("quarantine_releases")

    # -- replies --------------------------------------------------------
    def _describe(self, runtime: SessionRuntime) -> dict:
        world = runtime.session.world
        return {
            "session_id": runtime.session_id,
            "shard_id": self.shard_id,
            "scenario": runtime.session.spec.scenario,
            "frame_index": world.frame_index,
            "time": world.time,
            "bodies": len(world.bodies),
            "quarantined": runtime.quarantined,
            "watchdog_events": runtime.watchdog_events_seen,
        }


def shard_main(shard_id: int, inbox, outbox):
    """Process entry point (top-level so spawn can pickle it)."""
    worker = ShardWorker(shard_id)
    try:
        worker.run(inbox, outbox)
    except KeyboardInterrupt:
        pass
    finally:
        outbox.close()
