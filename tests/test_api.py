"""The session-first public API: SessionSpec, Session, SessionGroup,
and the one way to construct a World."""

import json
import warnings

import pytest

from repro.api import Session, SessionGroup, SessionSpec
from repro.dynamics import Body
from repro.engine import World, WorldConfig
from repro.geometry import Sphere
from repro.math3d import Vec3


def spec(name="periodic", **kw):
    kw.setdefault("scale", 0.05)
    kw.setdefault("backend", "numpy")
    return SessionSpec(name, **kw)


class TestSessionSpec:
    def test_json_round_trip(self):
        original = spec("explosions", seed=7,
                        config={"gravity": [0.0, -5.0, 0.0]},
                        watchdog=True)
        wire = json.loads(json.dumps(original.to_dict()))
        assert sorted(wire) == ["backend", "config", "scale", "scenario",
                                "seed", "watchdog"]
        assert SessionSpec.from_dict(wire) == original

    def test_resolved_pins_backend(self):
        unpinned = SessionSpec("periodic")
        assert unpinned.resolved().backend in ("numpy", "scalar")

    def test_unknown_config_field_rejected(self):
        with pytest.raises(TypeError):
            WorldConfig().replace(not_a_field=1.0)
        # ... and a spec patch (how the ablation matrix spells a
        # toggle) cannot smuggle one in either.
        with pytest.raises(TypeError, match="unknown WorldConfig"):
            SessionSpec("periodic", config={"not_a_field": 1.0})
        with pytest.raises(TypeError):
            SessionSpec("periodic", solver="off")


class TestDeprecationShims:
    """The ``World(**tunables)`` shim is gone: tunables outside
    ``config=`` are ordinary unexpected keyword arguments."""

    def test_world_kwargs_alongside_config_rejected(self):
        with pytest.raises(TypeError):
            World(config=WorldConfig(), dt=0.001)

    def test_world_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            World(gravityy=(0.0, 0.0, 0.0))

    def test_config_path_does_not_warn(self):
        """``config=`` is the one way in; a tuple gravity is normalised
        once, so both kernel sets can step it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for backend in ("scalar", "numpy"):
                world = World(config=WorldConfig(dt=0.004,
                                                 gravity=(0, -3, 0)),
                              backend=backend)
                ball = Body(position=Vec3(0, 1, 0))
                world.attach(ball, Sphere(0.5))
                world.step_frame()
                assert world.config.gravity == Vec3(0, -3, 0)
                assert ball.linear_velocity.y < 0


class TestSession:
    def test_two_sessions_same_spec_same_digest(self):
        a = Session.create(spec())
        b = Session.create(spec())
        a.step(4)
        b.step(4)
        assert a.state_digest() == b.state_digest()

    def test_describe_is_json_native(self):
        session = Session.create(spec())
        session.step(2)
        status = json.loads(json.dumps(session.describe()))
        assert status["frame_index"] == 2
        assert status["scenario"] == "periodic"
        assert len(status["digest"]) == 64

    def test_closed_session_refuses_steps(self):
        session = Session.create(spec())
        session.close()
        with pytest.raises(RuntimeError):
            session.step()

    def test_seed_changes_trajectory(self):
        a = Session.create(spec("periodic", seed=0))
        b = Session.create(spec("periodic", seed=1))
        a.step(3)
        b.step(3)
        assert a.state_digest() != b.state_digest()


class TestSessionGroup:
    def test_dynamic_membership_matches_solo(self):
        solos = [Session.create(spec(seed=i)) for i in range(3)]
        grouped = [Session.create(spec(seed=i)) for i in range(3)]

        group = SessionGroup(grouped[:2])
        group.step(2)
        group.add(grouped[2])  # joins mid-flight
        for solo in solos[:2]:
            solo.step(2)
        group.step(3)
        for solo in solos[:2]:
            solo.step(3)
        solos[2].step(3)

        removed = grouped[1]
        group.remove(removed)
        group.step(2)
        solos[0].step(2)
        solos[2].step(2)

        assert grouped[0].state_digest() == solos[0].state_digest()
        assert removed.state_digest() == solos[1].state_digest()
        assert grouped[2].state_digest() == solos[2].state_digest()

    def test_mixed_group_matches_solo(self):
        """Every member steps through its own ``Session.step``, so a
        group mixing backends, solver settings and a watchdog lands
        every member on its solo twin's digest."""
        specs = [spec(seed=0), spec(seed=1),
                 spec(seed=2, backend="scalar"),
                 spec(seed=3, backend="scalar"),
                 spec(seed=4, config={"solver_iterations": 10}),
                 spec(seed=5, watchdog=True)]
        grouped = [Session.create(s) for s in specs]
        SessionGroup(grouped).step(3)

        for session, twin_spec in zip(grouped, specs):
            twin = Session.create(twin_spec)
            twin.step(3)
            assert session.state_digest() == twin.state_digest()
            assert session.world.frame_index == 3
            assert len(session.reports) == 3

    def test_group_rejects_duplicate_membership_unchanged(self):
        """A refused ``add`` leaves the group as it was: one entry per
        session, so one frame per ``step(1)`` — plain or guarded."""
        for session in (Session.create(spec()),
                        Session.create(spec(watchdog=True))):
            group = SessionGroup([session])
            with pytest.raises(ValueError):
                group.add(session)
            assert len(group) == 1
            group.step(1)
            assert session.world.frame_index == 1

    def test_guarded_session_steps_solo_but_identically(self):
        guarded = Session.create(spec(watchdog=True))
        solo = Session.create(spec(watchdog=True))
        plain = Session.create(spec(seed=3))
        group = SessionGroup([guarded, plain])
        group.step(4)
        solo.step(4)
        assert guarded.state_digest() == solo.state_digest()


def test_guarded_recorder_and_session_share_the_frame_loop():
    """A hand-written ``world.step_frame(driver, guard.step)`` loop and
    a watchdog ``Session.step`` are the same ``World.step_frame`` loop:
    the same body, corrupted at the same step, gives the same frames
    (uids aside: the session draws its own), the same rollbacks and
    the same frame count."""
    from fault_injection import FaultInjector

    from repro.engine.recorder import TrajectoryRecorder
    from repro.resilience import StepWatchdog
    from repro.workloads.benchmarks import get_benchmark

    fault = [(3, "huge_impulse")]
    session = Session.create(spec(seed=2, watchdog=True))
    session._driver = FaultInjector(session.world, fault, 2).wrap(
        session._driver)
    served = TrajectoryRecorder(session.world)
    served.snapshot()
    for _ in range(3):
        session.step(1)
        served.snapshot()

    world, scene_driver = get_benchmark("periodic").build(
        scale=0.05, seed=2, backend="numpy")
    driver = FaultInjector(world, fault, 2).wrap(scene_driver)
    guard = StepWatchdog(world)
    recorded = TrajectoryRecorder(world)
    recorded.snapshot()
    for _ in range(3):
        world.step_frame(driver, guard.step)
        recorded.snapshot()

    def poses(recorder):
        return [[state[1:] for state in frame]
                for frame in recorder.frames]

    assert poses(recorded) == poses(served)
    assert world.frame_index == session.world.frame_index == 3
    assert len(guard.health) == len(session.health) >= 1
