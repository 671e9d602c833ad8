"""Fault injection: prove every recovery rung fires and the guarded
engine survives the ISSUE acceptance gauntlet.

All tests here carry the ``faults`` marker (run with ``-m faults``);
CI runs them as a separate step after tier-1.
"""

import pytest

from repro.api import SessionSpec, run_scenario
from repro.resilience import (
    Fault,
    FaultSchedule,
    FAULT_KINDS,
    LADDER,
    guard,
)
from repro.workloads import BENCHMARKS, validate_world

pytestmark = pytest.mark.faults


def _world_is_finite(world):
    import numpy as np
    for body in world.bodies:
        if body.enabled and not body.is_finite():
            return False
    for cloth in world.cloths:
        if not np.isfinite(cloth.positions).all():
            return False
    return True


class TestFaultsTriggerAndRecover:
    @pytest.mark.parametrize("workload", ["explosions", "breakable"])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_fault_recovers(self, workload, kind):
        schedule = FaultSchedule([Fault(6, kind)])
        run = run_scenario(SessionSpec(workload, scale=0.08, seed=1,
                                       watchdog=True, faults=schedule),
                           frames=10)
        assert run.injector.injected, "fault never landed"
        assert len(run.health) >= 1, "watchdog never triggered"
        assert run.health.unrecovered == 0
        rungs = run.health.rungs_fired()
        assert rungs and all(r in LADDER for r in rungs)
        report = validate_world(run.world, health=run.health)
        assert report.ok, report.summary()

    def test_unguarded_fault_corrupts_the_world(self):
        """The injector has teeth: without the watchdog the same fault
        leaves NaNs for the validator to find."""
        schedule = FaultSchedule([Fault(6, "nan_position")])
        run = run_scenario(SessionSpec("explosions", scale=0.08, seed=1,
                                       faults=schedule),
                           frames=10)
        report = validate_world(run.world)
        assert not report.ok


class TestEscalationLadder:
    """Pin each rung to a fault profile that defeats the rungs below it.

    Transient faults vanish after rollback, so rung 1 always wins;
    persistent faults re-inject on every retry of the step, forcing
    escalation until a rung actually contains the damage."""

    def test_transient_fault_recovers_at_double_iterations(self):
        schedule = FaultSchedule([Fault(6, "huge_impulse")])
        run = run_scenario(SessionSpec("explosions", scale=0.08, seed=1,
                                       watchdog=True, faults=schedule),
                           frames=10)
        assert run.health.rungs_fired() == ["double_iterations"]

    def test_half_dt_rung_fires_when_first_offered(self, monkeypatch):
        monkeypatch.setattr(guard, "LADDER", LADDER[1:])
        schedule = FaultSchedule([Fault(6, "huge_impulse")])
        run = run_scenario(SessionSpec("explosions", scale=0.08, seed=1,
                                       watchdog=True, faults=schedule),
                           frames=10)
        assert run.health.rungs_fired() == ["half_dt"]
        assert run.health.unrecovered == 0

    def test_persistent_impulse_escalates_to_clamp(self):
        schedule = FaultSchedule([Fault(6, "huge_impulse",
                                        persistent=True)])
        run = run_scenario(SessionSpec("explosions", scale=0.08, seed=1,
                                       watchdog=True, faults=schedule),
                           frames=10)
        assert "clamp_velocities" in run.health.rungs_fired()
        assert run.health.unrecovered == 0

    def test_persistent_nan_escalates_to_quarantine(self):
        schedule = FaultSchedule([Fault(6, "nan_position",
                                        persistent=True)])
        run = run_scenario(SessionSpec("explosions", scale=0.08, seed=1,
                                       watchdog=True, faults=schedule),
                           frames=10)
        assert "quarantine" in run.health.rungs_fired()
        assert run.health.unrecovered == 0
        event = run.health.events[-1]
        assert event.quarantined_uids
        report = validate_world(run.world, health=run.health)
        assert report.ok, report.summary()


class TestDeterminism:
    def test_seeded_schedule_is_reproducible(self):
        a = FaultSchedule.seeded(42, steps=30)
        b = FaultSchedule.seeded(42, steps=30)
        assert [(f.step, f.kind) for f in a] == \
               [(f.step, f.kind) for f in b]
        c = FaultSchedule.seeded(43, steps=30)
        assert [(f.step, f.kind) for f in a] != \
               [(f.step, f.kind) for f in c]

    def test_injection_log_is_reproducible(self):
        logs = []
        for _ in range(2):
            schedule = FaultSchedule.seeded(7, steps=18, count=3)
            run = run_scenario(SessionSpec("explosions", scale=0.08, seed=7,
                                           watchdog=True, faults=schedule),
                               frames=6)
            # uids differ across builds (global counter); compare the
            # deterministic (step, kind) stream.
            logs.append([(s, k) for s, k, _ in run.injector.injected])
        assert logs[0] == logs[1]
        assert logs[0]


class TestAcceptanceGauntlet:
    """ISSUE gate: every Table 3 workload completes 30 frames under a
    seeded fault schedule with zero uncaught exceptions and zero NaNs
    in the final state."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_workload_survives_seeded_faults(self, name):
        schedule = FaultSchedule.seeded(11, steps=30 * 3, count=4)
        run = run_scenario(SessionSpec(name, scale=0.05, seed=11,
                                       watchdog=True, faults=schedule),
                           frames=30)
        assert run.health.unrecovered == 0
        assert _world_is_finite(run.world)
        report = validate_world(run.world, health=run.health)
        assert report.non_finite_bodies == 0
        assert report.non_finite_cloth_vertices == 0
        assert report.unrecovered_incidents == 0


class TestNumpyBackendWatchdog:
    """The escalation ladder must keep firing with backend="numpy":
    the vectorized solver reports the same residuals, so divergence
    detection and recovery behave exactly as on the scalar path."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_fault_recovers_on_numpy(self, kind):
        schedule = FaultSchedule([Fault(6, kind)])
        run = run_scenario(SessionSpec("explosions", scale=0.08, seed=1,
                                       watchdog=True, backend="numpy",
                                       faults=schedule),
                           frames=10)
        assert run.world.backend == "numpy"
        assert run.injector.injected, "fault never landed"
        assert len(run.health) >= 1, "watchdog never triggered"
        assert run.health.unrecovered == 0
        rungs = run.health.rungs_fired()
        assert rungs and all(r in LADDER for r in rungs)
        report = validate_world(run.world, health=run.health)
        assert report.ok, report.summary()

    def test_ladder_fires_identically_on_both_backends(self):
        """Same seeded gauntlet, same incident log, either backend."""
        fired = {}
        for backend in ("scalar", "numpy"):
            schedule = FaultSchedule.seeded(11, steps=10 * 3, count=3)
            run = run_scenario(SessionSpec("explosions", scale=0.08, seed=11,
                                           watchdog=True, backend=backend,
                                           faults=schedule),
                               frames=10)
            assert run.health.unrecovered == 0
            fired[backend] = run.health.rungs_fired()
        assert fired["scalar"] == fired["numpy"]
