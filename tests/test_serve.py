"""The sharded simulation service: routing, metrics, protocol units,
cluster lifecycle end-to-end, migration bit-identity through the
service, backpressure, quarantine, and the asyncio front-end."""

import asyncio
import json

import pytest

from repro.api import Session, SessionSpec
from repro.serve import (BackpressureError, FrameTimeHistogram,
                         RoutingTable, SessionExistsError,
                         ShardTimeoutError, ShardWorker, SimService,
                         UnknownSessionError, WorkerError,
                         merge_snapshots, serve_tcp, shard_for)
from repro.serve import protocol, shard


def spec(name="periodic", **kw):
    kw.setdefault("scale", 0.02)
    kw.setdefault("backend", "numpy")
    return SessionSpec(name, **kw)


# -- units: routing ------------------------------------------------------
class TestRouting:
    def test_shard_for_is_stable_and_in_range(self):
        for n in (1, 2, 5):
            for sid in ("a", "session-42", "s00099"):
                first = shard_for(sid, n)
                assert 0 <= first < n
                assert shard_for(sid, n) == first

    def test_overrides_layer_over_hash_placement(self):
        table = RoutingTable(4)
        sid = "mover"
        home = table.shard_of(sid)
        target = (home + 1) % 4
        table.assign(sid, target)
        assert table.shard_of(sid) == target
        table.assign(sid, home)  # back home drops the override
        assert table.overrides == {}
        table.assign(sid, target)
        table.forget(sid)
        assert table.shard_of(sid) == home

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            shard_for("x", 0)
        with pytest.raises(ValueError):
            RoutingTable(2).assign("x", 5)


# -- units: metrics ------------------------------------------------------
class TestMetrics:
    def test_histogram_percentiles_bracket_the_data(self):
        hist = FrameTimeHistogram()
        for _ in range(90):
            hist.record(0.001)
        for _ in range(10):
            hist.record(0.5)
        assert 0.0005 < hist.percentile(50) < 0.002
        assert 0.25 < hist.percentile(95) < 1.0
        assert hist.max == 0.5
        assert hist.total == 100

    def test_merge_and_serialization_round_trip(self):
        a, b = FrameTimeHistogram(), FrameTimeHistogram()
        a.record(0.01)
        b.record(0.02)
        b.record(0.04)
        a.merge(FrameTimeHistogram.from_dict(
            json.loads(json.dumps(b.to_dict()))))
        assert a.total == 3
        assert a.max == 0.04

    def test_merge_snapshots_folds_counters(self):
        from repro.serve import ShardMetrics
        m0, m1 = ShardMetrics(0), ShardMetrics(1)
        m0.observe_frame("a", 0.01)
        m1.observe_frame("b", 0.02)
        m1.count("quarantines")
        merged = merge_snapshots([m0.snapshot(), m1.snapshot()])
        assert merged["counters"]["frames"] == 2
        assert merged["counters"]["quarantines"] == 1
        assert merged["frame_time_summary"]["count"] == 2


# -- units: protocol -----------------------------------------------------
class TestProtocol:
    def test_typed_error_survives_the_wire(self):
        reply = json.loads(json.dumps(protocol.error_reply(
            7, UnknownSessionError("nope"))))
        with pytest.raises(UnknownSessionError, match="nope"):
            protocol.raise_if_error(reply)

    def test_foreign_exception_becomes_worker_error(self):
        reply = protocol.error_reply(1, KeyError("boom"))
        assert reply["error"]["type"] == "WorkerError"
        with pytest.raises(protocol.WorkerError, match="KeyError"):
            protocol.raise_if_error(reply)

    def test_unknown_error_type_degrades_to_worker_error(self):
        reply = {"req_id": 1, "ok": False,
                 "error": {"type": "FutureError", "message": "m"}}
        with pytest.raises(protocol.WorkerError):
            protocol.raise_if_error(reply)

    def test_ok_reply_passes_result_through(self):
        assert protocol.raise_if_error(
            protocol.ok_reply(3, {"x": 1})) == {"x": 1}


# -- units: quarantine ladder -------------------------------------------
SLOW = 2 * shard.SLOW_FRAME_SECONDS
FAST = shard.SLOW_FRAME_SECONDS / 10


class TestQuarantineLadder:
    def test_streaks_drive_quarantine_and_release(self):
        worker = ShardWorker(0)
        runtime = shard.SessionRuntime("s", session=None)
        for _ in range(shard.QUARANTINE_AFTER - 1):
            worker._update_quarantine(runtime, SLOW)
            assert not runtime.quarantined
        worker._update_quarantine(runtime, SLOW)
        assert runtime.quarantined
        for _ in range(shard.RELEASE_AFTER - 1):
            worker._update_quarantine(runtime, FAST)
            assert runtime.quarantined
        worker._update_quarantine(runtime, FAST)
        assert not runtime.quarantined
        assert worker.metrics.counters["quarantines"] == 1
        assert worker.metrics.counters["quarantine_releases"] == 1

    def test_slow_streak_resets_on_fast_frame(self):
        worker = ShardWorker(0)
        runtime = shard.SessionRuntime("s", session=None)
        streak = [SLOW] * (shard.QUARANTINE_AFTER - 1)
        for seconds in streak + [FAST] + streak:
            worker._update_quarantine(runtime, seconds)
        assert not runtime.quarantined


# -- units: one worker, driven in-process --------------------------------
class Outbox(list):
    """``outbox.put`` of a ``ShardWorker`` used without its process."""

    put = list.append


def fake_clock(monkeypatch):
    """Replace the shard's clock with one only drivers advance."""
    clock = [0.0]
    monkeypatch.setattr(shard, "now", lambda: clock[0])
    return clock


def timed_driver(session, clock, frame_seconds):
    """Make each of ``session``'s frames read ``frame_seconds()`` on
    the fake clock: its driver advances the clock every sub-step."""
    substeps = session.world.config.substeps_per_frame
    scene_driver = session._driver

    def driver():
        clock[0] += frame_seconds() / substeps
        if scene_driver is not None:
            scene_driver()
    session._driver = driver


class TestShardWorker:
    def test_commands_queued_behind_destroy_are_refused_in_order(self):
        worker, outbox = ShardWorker(0), Outbox()
        worker._dispatch(protocol.request(
            0, "create", "s", spec=spec().to_dict()), outbox)
        for req_id, verb in enumerate(
                ("step", "destroy", "query", "step", "query"), start=1):
            worker._dispatch(protocol.request(req_id, verb, "s"), outbox)
        while worker._has_step_work():
            worker._frame_round(outbox)
        # Every request is answered exactly once, in FIFO order; what
        # was queued behind the destroy names the missing session.
        assert [reply["req_id"] for reply in outbox] == [0, 1, 2, 3, 4, 5]
        assert [reply["ok"] for reply in outbox] == [True] * 3 \
            + [False] * 3
        for reply in outbox[3:]:
            with pytest.raises(UnknownSessionError):
                protocol.raise_if_error(reply)
        assert worker.sessions == {}
        assert worker.metrics.counters["errors"] == 3

    def test_raising_command_queued_behind_a_step_gets_a_typed_reply(self):
        """A queued command runs from the frame round, outside
        ``_dispatch``'s guard; if it raises, that is one error reply,
        not the death of the worker and every session on it."""
        worker, outbox = ShardWorker(0), Outbox()
        for req_id, sid in enumerate(("s", "other")):
            worker._dispatch(protocol.request(
                req_id, "create", sid, spec=spec().to_dict()), outbox)
        worker._dispatch(protocol.request(2, "step", "s"), outbox)
        worker._dispatch(protocol.request(3, "step", "s", frames="abc"),
                         outbox)
        worker._dispatch(protocol.request(4, "query", "s"), outbox)
        while worker._has_step_work():
            worker._frame_round(outbox)
        assert [reply["req_id"] for reply in outbox] == [0, 1, 2, 3, 4]
        assert [reply["ok"] for reply in outbox] \
            == [True, True, True, False, True]
        with pytest.raises(WorkerError, match="invalid literal"):
            protocol.raise_if_error(outbox[3])
        assert outbox[4]["result"]["frame_index"] == 1
        assert worker.metrics.counters["errors"] == 1
        # Same reply when nothing is ahead of it (the _dispatch path),
        # and the shard's other session is still served.
        worker._dispatch(protocol.request(5, "step", "s", frames="abc"),
                         outbox)
        worker._dispatch(protocol.request(6, "step", "other"), outbox)
        while worker._has_step_work():
            worker._frame_round(outbox)
        assert [(reply["req_id"], reply["ok"]) for reply in outbox[5:]] \
            == [(5, False), (6, True)]
        assert outbox[5]["error"] == outbox[3]["error"]
        assert worker.metrics.counters["errors"] == 2

    def test_round_steps_each_session_like_its_twin(self):
        """A round steps each due session alone, so every served
        session lands on its solo twin's digest, whatever its backend."""
        worker, outbox = ShardWorker(0), Outbox()
        twins = []
        for seed, backend in enumerate(("scalar", "numpy")):
            twin_spec = spec(seed=seed, backend=backend)
            worker._dispatch(protocol.request(
                seed, "create", f"s{seed}", spec=twin_spec.to_dict()),
                outbox)
            worker._dispatch(protocol.request(
                10 + seed, "step", f"s{seed}"), outbox)
            twins.append(Session.create(twin_spec))
        worker._frame_round(outbox)
        assert not worker._has_step_work()
        assert worker.metrics.counters["frames"] == 2
        for seed, twin in enumerate(twins):
            twin.step(1)
            served = worker.sessions[f"s{seed}"].session
            assert served.state_digest() == twin.state_digest()

    def test_each_session_is_timed_on_its_own_clock(self, monkeypatch):
        """A slow session's frame time is its own: it is quarantined
        alone, and each session's histogram reads its own frames. The
        fake clock advances only inside each session's driver, so a
        frame's reading is exactly what that session's sub-steps cost."""
        clock = fake_clock(monkeypatch)
        worker = ShardWorker(0)
        outbox = Outbox()
        frames = shard.QUARANTINE_AFTER + 1
        for req_id, (sid, frame_seconds) in enumerate(
                (("fast", FAST), ("slow", 4 * SLOW))):
            worker._dispatch(protocol.request(
                req_id, "create", sid, spec=spec().to_dict()), outbox)
            timed_driver(worker.sessions[sid].session, clock,
                         lambda seconds=frame_seconds: seconds)
            worker._dispatch(protocol.request(
                10 + req_id, "step", sid, frames=frames), outbox)
        while worker._has_step_work():
            worker._frame_round(outbox)

        assert worker.sessions["slow"].quarantined
        assert not worker.sessions["fast"].quarantined
        assert worker.metrics.counters["quarantines"] == 1
        assert worker.metrics.counters["frames"] == 2 * frames
        p50 = {sid: summary["p50_s"] for sid, summary in
               worker.metrics.snapshot()["sessions"].items()}
        assert p50["fast"] < 2 * FAST
        assert p50["slow"] > 2 * SLOW

    def test_slow_session_is_quarantined_but_completes(self, monkeypatch):
        """A quarantined session steps only on probe rounds (every
        ``QUARANTINE_BACKOFF``-th), still finishes its step job, and
        is released after ``RELEASE_AFTER`` fast probe frames; its
        fast shardmate steps every round throughout."""
        clock = fake_clock(monkeypatch)
        worker, outbox = ShardWorker(0), Outbox()
        # Slow until one probe past quarantine, then fast: that probe
        # and RELEASE_AFTER fast ones step quarantined, two more free.
        slow_frames = [shard.QUARANTINE_AFTER + 1]
        quarantined = 1 + shard.RELEASE_AFTER
        frames = slow_frames[0] + shard.RELEASE_AFTER + 2
        for req_id, (sid, frame_seconds) in enumerate(
                (("other", lambda: FAST),
                 ("slow", lambda: SLOW if slow_frames[0] > 0 else FAST))):
            worker._dispatch(protocol.request(
                req_id, "create", sid, spec=spec().to_dict()), outbox)
            timed_driver(worker.sessions[sid].session, clock, frame_seconds)
        worker._dispatch(protocol.request(2, "step", "slow",
                                          frames=frames), outbox)
        worker._dispatch(protocol.request(3, "step", "other",
                                          frames=10 ** 6), outbox)
        slow = worker.sessions["slow"]
        stepped_in = []  # rounds in which "slow" stepped
        while slow.step_job is not None:
            before = slow.session.frame_index
            worker._frame_round(outbox)
            if slow.session.frame_index > before:
                stepped_in.append(worker.round_index)
                slow_frames[0] -= 1
        # Every round until quarantine, then only probe rounds, then
        # every round again once released.
        first, probes, last = (
            stepped_in[:shard.QUARANTINE_AFTER],
            stepped_in[shard.QUARANTINE_AFTER:-2], stepped_in[-2:])
        assert first == list(range(1, shard.QUARANTINE_AFTER + 1))
        assert len(probes) == quarantined
        assert all(r % shard.QUARANTINE_BACKOFF == 0 for r in probes)
        assert last == [probes[-1] + 1, probes[-1] + 2]
        reply = next(r for r in outbox if r["req_id"] == 2)
        assert reply["result"]["frame_index"] == frames
        assert worker.sessions["other"].session.frame_index \
            == worker.round_index
        assert worker.metrics.counters["quarantines"] == 1
        assert worker.metrics.counters["quarantine_releases"] == 1

    def test_served_session_keeps_only_its_last_report(self):
        """A shard must not grow with uptime: nothing served reads a
        past frame's report, in-process callers keep full history."""
        worker, outbox = ShardWorker(0), Outbox()
        worker._dispatch(protocol.request(
            0, "create", "s", spec=spec().to_dict()), outbox)
        worker._dispatch(protocol.request(1, "step", "s", frames=30),
                         outbox)
        while worker._has_step_work():
            worker._frame_round(outbox)
        worker._dispatch(protocol.request(2, "query", "s"), outbox)
        assert len(worker.sessions["s"].session.reports) <= 1
        twin = Session.create(spec())
        twin.step(30)
        assert len(twin.reports) == 30
        assert outbox[-1]["result"]["frame_index"] == 30
        assert outbox[-1]["result"]["digest"] == twin.state_digest()


# -- end-to-end: cluster -------------------------------------------------
def serve(scenario, **cluster_kwargs):
    """Run ``scenario(service)`` against a fresh cluster."""
    async def main():
        async with SimService.start(**cluster_kwargs) as service:
            return await scenario(service)
    return asyncio.run(main())


class TestCluster:
    def test_lifecycle_and_typed_errors(self):
        async def scenario(service):
            await service.create_session("a", spec(seed=0))
            with pytest.raises(SessionExistsError):
                await service.create_session("a", spec(seed=0))
            result = await service.step("a", frames=3)
            assert result["frame_index"] == 3
            status = await service.query("a")
            assert status["frame_index"] == 3
            assert len(status["digest"]) == 64
            with pytest.raises(UnknownSessionError):
                await service.step("ghost")
            await service.destroy("a")
            with pytest.raises(UnknownSessionError):
                await service.query("a")

        serve(scenario, n_shards=2, backlog=16)

    def test_serve_matches_local_session(self):
        async def scenario(service):
            await service.create_session("x", spec(seed=4))
            await service.step("x", frames=5)
            return (await service.query("x"))["digest"]

        served = serve(scenario, n_shards=2)
        local = Session.create(spec(seed=4))
        local.step(5)
        assert served == local.state_digest()

    def test_migration_is_bit_identical(self):
        async def scenario(service):
            routing = service.cluster.routing
            await service.create_session(
                "m", spec("explosions", scale=0.05))
            await service.step("m", frames=4)
            source = routing.shard_of("m")
            target = (source + 1) % 2
            moved = await service.migrate("m", target)
            assert moved["shard_id"] == target
            assert routing.shard_of("m") == target
            await service.step("m", frames=4)
            served = (await service.query("m"))["digest"]
            stats = await service.stats()
            assert stats["counters"]["sessions_restored"] == 1
            await service.destroy("m")
            assert routing.overrides == {}
            return served

        served = serve(scenario, n_shards=2)
        twin = Session.create(spec("explosions", scale=0.05))
        twin.step(8)
        assert served == twin.state_digest()

    def test_restore_of_a_malformed_snapshot_is_refused(self):
        async def scenario(service):
            await service.create_session("a", spec(seed=0))
            await service.create_session("b", spec(seed=1))
            await service.step("a", frames=2)
            payload = await service.checkpoint("a")
            del payload["snapshot"]["impulse_cache"]
            with pytest.raises(WorkerError,
                               match="SnapshotMismatchError.*impulse_cache"):
                await service.restore_session("c", payload)
            assert (await service.query("b"))["frame_index"] == 0
            with pytest.raises(UnknownSessionError):
                await service.query("c")

        serve(scenario, n_shards=1)

    @pytest.mark.parametrize("key", ("watchdog_config", "erp"))
    def test_restore_of_a_stale_checkpoint_is_refused(self, key):
        """A spec key this version does not know (a removed top-level
        entry, a removed config field) fails only that restore."""
        stale = {"watchdog_config": {"watchdog_config": None},
                 "erp": {"config": {"erp": 0.2}}}[key]

        async def scenario(service):
            await service.create_session("a", spec(seed=0))
            await service.create_session("b", spec(seed=1))
            await service.step("a", frames=2)
            payload = await service.checkpoint("a")
            payload["spec"].update(stale)
            with pytest.raises(WorkerError, match=f"TypeError.*{key}"):
                await service.restore_session("c", payload)
            assert (await service.step("b", frames=1))["frame_index"] == 1
            with pytest.raises(UnknownSessionError):
                await service.query("c")

        serve(scenario, n_shards=1)

    def test_full_inbox_raises_backpressure(self):
        async def scenario(service):
            cluster = service.cluster
            await service.create_session("busy", spec(scale=0.05))
            futures = [cluster.submit(0, "step", "busy", frames=30)]
            with pytest.raises(BackpressureError):
                for _ in range(500):
                    futures.append(cluster.submit(0, "query", "busy"))
            for future in futures:
                protocol.raise_if_error(
                    await asyncio.wait_for(asyncio.wrap_future(future),
                                           timeout=120))

        serve(scenario, n_shards=1, backlog=1)

    def test_watchdog_session_reports_events(self):
        faults = [{"step": 3, "kind": "huge_impulse",
                   "persistent": False}]

        async def scenario(service):
            await service.create_session(
                "w", spec(scale=0.05, watchdog=True, faults=faults))
            result = await service.step("w", frames=4)
            assert result["watchdog_events"] >= 1
            stats = await service.call("stats", shard_id=0)
            assert stats["counters"]["watchdog_events"] >= 1
            assert stats["counters"]["frames"] == 4

        serve(scenario, n_shards=1)

    def test_silent_shard_surfaces_as_shard_timeout(self):
        async def scenario(service):
            await service.create_session("t", spec(scale=0.05))
            service.cluster.request_timeout = 0.05
            with pytest.raises(ShardTimeoutError):
                await service.step("t", frames=10**6)
            assert service.cluster._pending == {}
            reply = await service.handle_message(
                {"req_id": 9, "verb": "query", "session_id": "t"})
            assert reply["req_id"] == 9 and reply["ok"] is False
            assert reply["error"]["type"] == "ShardTimeoutError"
            assert service.cluster._pending == {}

        serve(scenario, n_shards=1)


# -- end-to-end: asyncio front-end --------------------------------------
def over_tcp(scenario):
    """Run ``scenario(reader, writer)`` on one connection to a one-shard
    service behind :func:`serve_tcp`."""
    async def main():
        async with SimService.start(n_shards=1) as service:
            server = await serve_tcp(service)
            try:
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port, limit=2 ** 24)
                try:
                    return await scenario(reader, writer)
                finally:
                    writer.close()
            finally:
                server.close()
                await server.wait_closed()
    return asyncio.run(main())


class TestService:
    def test_async_verbs_and_stats(self):
        async def scenario():
            service = SimService.start(n_shards=2, backlog=32)
            try:
                await asyncio.gather(*(
                    service.create_session(f"s{i}", spec(seed=i))
                    for i in range(6)))
                await asyncio.gather(*(
                    service.step(f"s{i}", frames=3)
                    for i in range(6)))
                status = await service.query("s0")
                stats = await service.stats()
                await asyncio.gather(*(
                    service.destroy(f"s{i}") for i in range(6)))
                return status, stats
            finally:
                await service.close()

        status, stats = asyncio.run(scenario())
        assert status["frame_index"] == 3
        assert stats["counters"]["frames"] == 18
        # Every session is timed on its own clock: one histogram each.
        per_session = {sid: summary["count"]
                       for shard in stats["shards"]
                       for sid, summary in shard["sessions"].items()}
        assert per_session == {f"s{i}": 3 for i in range(6)}

    def test_async_migration_matches_twin(self):
        async def scenario():
            service = SimService.start(n_shards=2)
            try:
                await service.create_session("m", spec(seed=9))
                await service.step("m", frames=3)
                source = service.cluster.routing.shard_of("m")
                await service.migrate("m", (source + 1) % 2)
                await service.step("m", frames=3)
                return (await service.query("m"))["digest"]
            finally:
                await service.close()

        served = asyncio.run(scenario())
        twin = Session.create(spec(seed=9))
        twin.step(6)
        assert served == twin.state_digest()

    def test_tcp_json_lines_round_trip(self):
        async def scenario(reader, writer):
            # Valid JSON that is not a request object gets the same
            # typed error frame as bad JSON, and the connection keeps
            # serving.
            rejected = []
            for line in (b"[1,2]", b"5", b'"x"', b"null", b"{bad"):
                writer.write(line + b"\n")
                await writer.drain()
                rejected.append(json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=10)))
            for req in (
                {"req_id": 1, "verb": "create", "session_id": "net",
                 "args": {"spec": spec(seed=2).to_dict()}},
                {"req_id": 2, "verb": "step", "session_id": "net",
                 "args": {"frames": 2}},
                {"req_id": 3, "verb": "query", "session_id": "net"},
                {"req_id": 4, "verb": "destroy", "session_id": "net"},
            ):
                writer.write(json.dumps(req).encode() + b"\n")
            await writer.drain()
            replies = {}
            for _ in range(4):
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=60)
                reply = json.loads(line)
                replies[reply["req_id"]] = reply
            return rejected, replies

        rejected, replies = over_tcp(scenario)
        for reply in rejected:
            assert reply["req_id"] == -1 and reply["ok"] is False
            assert reply["error"]["type"] == "WorkerError"
        assert all(r["ok"] for r in replies.values())
        assert replies[3]["result"]["frame_index"] == 2
        assert len(replies[3]["result"]["digest"]) == 64

    def test_tcp_restore_of_a_cloth_checkpoint_round_trips(self):
        """A cloth checkpoint is a request line past asyncio's 64 KiB
        default stream limit; restoring it over TCP still works."""
        cloth = spec("deformable", scale=0.05)

        async def scenario(reader, writer):
            async def call(req_id, verb, **args):
                msg = protocol.request(req_id, verb, "cloth", **args)
                writer.write(json.dumps(msg).encode() + b"\n")
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=120))
                assert reply["req_id"] == req_id
                return protocol.raise_if_error(reply)

            await call(1, "create", spec=cloth.to_dict())
            await call(2, "step", frames=2)
            payload = await call(3, "checkpoint")
            assert len(json.dumps(payload)) > 64 * 1024
            await call(4, "destroy")
            await call(5, "restore", payload=payload)
            return (await call(6, "query"))["digest"]

        served = over_tcp(scenario)
        twin = Session.create(cloth)
        twin.step(2)
        assert served == twin.state_digest()

    def test_tcp_line_over_the_limit_gets_a_typed_frame(self, monkeypatch):
        monkeypatch.setattr("repro.serve.service.MAX_LINE_BYTES", 1024)

        async def scenario(reader, writer):
            writer.write(b'{"req_id": 1, "verb": "query", "pad": "'
                         + b"x" * 4096 + b'"}\n')
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(),
                                                      timeout=10))
            return reply, await asyncio.wait_for(reader.read(), timeout=10)

        reply, rest = over_tcp(scenario)
        assert reply["req_id"] == -1 and reply["ok"] is False
        assert reply["error"]["type"] == "WorkerError"
        assert "1024 bytes" in reply["error"]["message"]
        assert rest == b""  # the server hung up
