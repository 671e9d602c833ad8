"""Resilience layer: checkpoint determinism and the step watchdog.

The contract under test: a :class:`WorldSnapshot` captured mid-run and
restored later replays the remaining steps *bit-identically* — same
positions, same orientations, same spawned uids — and survives a JSON
round-trip unchanged. The watchdog stays silent on healthy runs and the
pruning/joint-skip fixes hold.
"""

import json
import math

import pytest

from repro.api import Session, SessionSpec
from repro.collision import Geom
from repro.dynamics import Body
from repro.engine import World, WorldConfig
from repro.engine.recorder import TrajectoryRecorder, trajectory_divergence
from repro.geometry import Box, Plane, Sphere
from repro.math3d import Vec3
from repro.resilience import (
    SnapshotMismatchError,
    StepWatchdog,
    WorldSnapshot,
)
from repro.workloads import get_benchmark


def _drive(world, driver, steps):
    for _ in range(steps):
        if driver is not None:
            driver()
        world.step()


def _record(world, driver, steps):
    """Per-step full-state fingerprints (uid-inclusive: within one
    world, restore rewinds the uid counters so uids must replay too)."""
    frames = []
    for _ in range(steps):
        if driver is not None:
            driver()
        world.step()
        frame = []
        for b in world.bodies:
            p, q, v, w = (b.position, b.orientation,
                          b.linear_velocity, b.angular_velocity)
            frame.append((b.uid, b.enabled, b.sleeping,
                          p.x, p.y, p.z, q.w, q.x, q.y, q.z,
                          v.x, v.y, v.z, w.x, w.y, w.z))
        for cloth in world.cloths:
            frame.append(cloth.positions.tobytes())
        frames.append(tuple(frame))
    return frames


# Benchmarks covering every stateful subsystem: joints + breaking,
# cloth, explosions + prefracture, cannon actor, high-speed CCD.
REPLAY_BENCHMARKS = ["ragdoll", "breakable", "deformable", "explosions",
                     "highspeed", "mix"]


class TestCheckpointReplay:
    @pytest.mark.parametrize("name", REPLAY_BENCHMARKS)
    def test_restore_replays_bit_identical(self, name):
        world, driver = get_benchmark(name).build(scale=0.08, seed=5)
        _drive(world, driver, 6)
        snapshot = WorldSnapshot.capture(world)
        reference = _record(world, driver, 8)
        snapshot.restore(world)
        replay = _record(world, driver, 8)
        assert replay == reference

    def test_restore_matches_uninterrupted_run(self):
        bench = get_benchmark("explosions")
        world_a, driver_a = bench.build(scale=0.08, seed=9)
        reference = _record(world_a, driver_a, 14)

        world_b, driver_b = bench.build(scale=0.08, seed=9)
        interrupted = _record(world_b, driver_b, 6)
        snapshot = WorldSnapshot.capture(world_b)
        _drive(world_b, driver_b, 5)  # throwaway detour
        snapshot.restore(world_b)
        interrupted += _record(world_b, driver_b, 8)

        # uids differ between separately-built worlds (global counter),
        # so compare the uid-agnostic tail of each fingerprint.
        strip = [tuple(s[1:] if isinstance(s, tuple) else s
                       for s in frame) for frame in interrupted]
        strip_ref = [tuple(s[1:] if isinstance(s, tuple) else s
                           for s in frame) for frame in reference]
        assert strip == strip_ref

    def test_restored_run_spawns_identical_uids(self):
        """The uid counters rewind, so post-restore spawns (cannon
        shells, debris) get the same uids as the first pass."""
        world, driver = get_benchmark("breakable").build(scale=0.1, seed=2)
        _drive(world, driver, 4)
        snapshot = WorldSnapshot.capture(world)
        _drive(world, driver, 10)
        first_pass = [b.uid for b in world.bodies]
        snapshot.restore(world)
        _drive(world, driver, 10)
        assert [b.uid for b in world.bodies] == first_pass


class TestSnapshotSerialization:
    def _snapshot(self):
        world, driver = get_benchmark("explosions").build(scale=0.08,
                                                         seed=3)
        _drive(world, driver, 5)
        return world, driver, WorldSnapshot.capture(world)

    @staticmethod
    def _through_json(snapshot):
        return WorldSnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict())))

    def test_json_round_trip_is_lossless(self):
        _, _, snapshot = self._snapshot()
        assert self._through_json(snapshot) == snapshot

    def test_json_restored_snapshot_replays_identically(self):
        world, driver, snapshot = self._snapshot()
        reference = _record(world, driver, 6)
        self._through_json(snapshot).restore(world)
        assert _record(world, driver, 6) == reference

    def test_restore_into_wrong_world_raises(self):
        _, _, snapshot = self._snapshot()
        other, _ = get_benchmark("ragdoll").build(scale=0.1, seed=3)
        with pytest.raises(SnapshotMismatchError):
            snapshot.restore(other)

    def test_dict_payload_is_json_native(self):
        _, _, snapshot = self._snapshot()
        json.dumps(snapshot.to_dict())  # must not need a custom encoder


# Every top-level key WorldSnapshot.capture writes.
SNAPSHOT_KEYS = (
    "version", "frame_index", "step_index", "time", "culled",
    "body_next_uid", "geom_next_uid", "n_geoms", "n_joints", "bodies",
    "geoms", "joints", "no_collide_pairs", "impulse_cache",
    "contacted_bodies", "cloths", "explosions", "prefractured", "actors",
)


@pytest.fixture(scope="module")
def checkpointed():
    """A ragdoll session stepped 2 frames past its checkpoint."""
    session = Session.create(SessionSpec("ragdoll", scale=0.05))
    session.step(3)
    payload = session.checkpoint()
    session.step(2)
    return session, payload


class TestSnapshotPayloadCheck:
    """A malformed payload is refused before any world is touched; a
    restore that failed halfway would leave a live world with rewound
    bodies and uid counters but a stale ``frame_index``."""

    @pytest.mark.parametrize("key", SNAPSHOT_KEYS)
    def test_dropped_key_leaves_the_world_untouched(self, checkpointed,
                                                    key):
        session, payload = checkpointed
        digest = session.state_digest()
        snap = {k: v for k, v in payload["snapshot"].items() if k != key}
        with pytest.raises(SnapshotMismatchError, match=key):
            WorldSnapshot.from_dict(snap).restore(session.world)
        assert session.state_digest() == digest
        assert session.frame_index == 5
        with pytest.raises(SnapshotMismatchError, match=key):
            Session.restore({**payload, "snapshot": snap})

    def test_unknown_key_is_refused(self, checkpointed):
        _, payload = checkpointed
        assert sorted(payload["snapshot"]) == sorted(SNAPSHOT_KEYS)
        snap = {**payload["snapshot"], "gravity": [0.0, -9.81, 0.0]}
        with pytest.raises(SnapshotMismatchError, match="gravity"):
            WorldSnapshot.from_dict(snap)


class TestStaleCheckpoint:
    """A payload whose spec carries a key this version does not know —
    a removed top-level entry, a removed config field — is refused
    before any world is built, naming the key."""

    STALE = {"watchdog_config": {"watchdog_config": None},
             "erp": {"config": {"erp": 0.2}}}

    @pytest.mark.parametrize("key", sorted(STALE))
    def test_session_restore_refuses_unknown_spec_key(
            self, checkpointed, monkeypatch, key):
        _, payload = checkpointed

        def build(*args, **kwargs):
            raise AssertionError("a world was built")
        monkeypatch.setattr(Session, "_build", build)
        counters = (Body._next_uid, Geom._next_uid)
        with pytest.raises(TypeError, match=key):
            Session.restore({**payload,
                             "spec": {**payload["spec"], **self.STALE[key]}})
        assert (Body._next_uid, Geom._next_uid) == counters


class TestWatchdogHealthyRun:
    def test_clean_run_records_no_incidents(self):
        world, driver = get_benchmark("periodic").build(scale=0.1, seed=1)
        guard = StepWatchdog(world)
        for _ in range(3):
            world.step_frame(driver, guard.step)
        assert len(guard.health) == 0
        assert guard.health.unrecovered == 0
        # health only attaches to the frame report when an incident
        # actually happens — clean frames carry no resilience baggage.
        assert world.report.health is None

    def test_guarded_run_matches_unguarded(self):
        """An incident-free watchdog is a bit-exact no-op."""
        bench = get_benchmark("ragdoll")
        world_a, driver_a = bench.build(scale=0.1, seed=4)
        rec_a = TrajectoryRecorder(world_a).record(4, driver_a)
        world_b, driver_b = bench.build(scale=0.1, seed=4)
        guard = StepWatchdog(world_b)
        rec_b = TrajectoryRecorder(world_b).record(4, driver_b,
                                                   stepper=guard.step)
        assert trajectory_divergence(rec_a, rec_b) == 0.0


class TestSolverResidual:
    def test_residual_reported_and_finite(self):
        world, driver = get_benchmark("periodic").build(scale=0.1, seed=1)
        _drive(world, driver, 3)
        assert world.last_island_residuals  # (residual, uids) per island
        assert all(math.isfinite(res)
                   for res, _ in world.last_island_residuals)


class TestHousekeepingFixes:
    def test_inactive_explosions_pruned(self):
        world = World(WorldConfig())
        world.add_static_geom(Plane(Vec3(0, 1, 0), 0.0))
        body = Body(position=Vec3(0, 2, 0))
        world.attach(body, Sphere(0.5), density=500.0)
        world.explode(Vec3(0, 0, 0), radius=5.0, impulse=10.0,
                      duration_steps=2)
        assert world.explosions
        for _ in range(4):
            world.step()
        assert world.explosions == []

    def test_triggered_prefracture_pruned_but_registry_kept(self):
        world, driver = get_benchmark("explosions").build(scale=0.1,
                                                          seed=2)
        registry_size = len(world.prefracture_registry)
        _drive(world, driver, 35)
        assert any(pf.broken for pf in world.prefracture_registry)
        assert all(not pf.broken for pf in world.prefractured)
        assert len(world.prefracture_registry) == registry_size

    def test_joint_with_disabled_body_is_skipped(self):
        from repro.dynamics.joints import BallJoint
        world = World(WorldConfig())
        a = Body(position=Vec3(0, 5, 0))
        b = Body(position=Vec3(1, 5, 0))
        world.attach(a, Box(Vec3(0.3, 0.3, 0.3)), density=500.0)
        world.attach(b, Box(Vec3(0.3, 0.3, 0.3)), density=500.0)
        world.add_joint(BallJoint(a, b, Vec3(0.5, 5, 0)))
        b.enabled = False
        before = (a.position.x, a.position.y, a.position.z)
        world.step()
        # The joint exerted nothing: a free-falls straight down.
        assert a.position.x == before[0]
        assert a.position.z == before[2]
        assert a.position.y < before[1]
