"""The step watchdog: validate every sub-step, roll back and degrade.

:class:`StepWatchdog` wraps ``World.step()``. Before each sub-step it
captures a :class:`~repro.resilience.checkpoint.WorldSnapshot`; after
stepping it validates the world:

* non-finite state on any enabled body or cloth vertex,
* kinetic-energy gain beyond a threshold with no active explosion,
* penetration-depth runaway,
* PGS non-convergence (the per-island ``residual`` from
  ``solve_island``).

On violation it restores the last good snapshot and retries the step
down a bounded, escalating degradation ladder::

    double_iterations -> half_dt -> clamp_velocities -> quarantine

``double_iterations`` re-solves with 2x solver iterations; ``half_dt``
re-integrates with dt/2 over two sub-steps; ``clamp_velocities`` caps
linear/angular speeds around the retry; ``quarantine`` disables the
offending bodies and lets the rest of the scene continue. Each rung
retries from the same pre-step snapshot, so a later rung never inherits
an earlier rung's damage. If the whole ladder fails the step is kept
as-is and flagged ``unrecovered`` — the watchdog degrades, it never
raises.

Every incident is recorded as a :class:`HealthEvent` in the watchdog's
:class:`HealthReport` and mirrored onto the frame's ``FrameReport``
(``report.health``).
"""

from __future__ import annotations

import numpy as np

from ..math3d import Vec3
from .checkpoint import WorldSnapshot

#: The degradation ladder, in the order its rungs are tried.
LADDER = (
    "double_iterations",
    "half_dt",
    "clamp_velocities",
    "quarantine",
)

# Energy violation: post > ENERGY_GAIN_FACTOR * (pre + ENERGY_GAIN_MIN).
# The floor tolerates legitimate injections (cannon muzzle energy,
# fracture debris) without tripping the guard.
ENERGY_GAIN_FACTOR = 8.0
ENERGY_GAIN_MIN = 1.0e5  # J
#: Deepest narrowphase contact a step may leave, in metres.
PENETRATION_LIMIT = 1.0
#: Worst island PGS residual (final-iteration impulse delta).
RESIDUAL_LIMIT = 100.0
#: Speed caps of the ``clamp_velocities`` rung (m/s, rad/s); 4x either
#: marks a body as an energy-runaway offender.
MAX_SPEED = 50.0
MAX_ANGULAR_SPEED = 64.0


class Violation:
    __slots__ = ("kind", "detail", "body_uids")

    def __init__(self, kind: str, detail: str, body_uids=()):
        self.kind = kind
        self.detail = detail
        self.body_uids = tuple(body_uids)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail,
                "body_uids": list(self.body_uids)}

    def __repr__(self):
        return f"Violation({self.kind}: {self.detail})"


class HealthEvent:
    """One watchdog incident: what went wrong and which rung fixed it."""

    __slots__ = ("step_index", "frame_index", "violations", "rung",
                 "recovered", "retries", "quarantined_uids")

    def __init__(self, step_index: int, frame_index: int, violations):
        self.step_index = step_index
        self.frame_index = frame_index
        self.violations = list(violations)
        self.rung = None  # ladder rung that recovered, or "unrecovered"
        self.recovered = False
        self.retries = 0
        self.quarantined_uids = ()

    @property
    def kinds(self):
        return tuple(v.kind for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "step_index": self.step_index,
            "frame_index": self.frame_index,
            "violations": [v.to_dict() for v in self.violations],
            "rung": self.rung,
            "recovered": self.recovered,
            "retries": self.retries,
            "quarantined_uids": list(self.quarantined_uids),
        }

    def __repr__(self):
        return (f"HealthEvent(step={self.step_index},"
                f" kinds={self.kinds}, rung={self.rung},"
                f" recovered={self.recovered})")


class HealthReport:
    """The incident log a watchdog accumulates over a run."""

    def __init__(self):
        self.events = []

    def append(self, event: HealthEvent):
        self.events.append(event)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def recovered(self) -> int:
        return sum(1 for e in self.events if e.recovered)

    @property
    def unrecovered(self) -> int:
        return sum(1 for e in self.events if not e.recovered)

    def rungs_fired(self):
        """Rung name per event, in order (``None`` never appears)."""
        return [e.rung for e in self.events]

    def to_dict(self) -> dict:
        return {"events": [e.to_dict() for e in self.events],
                "recovered": self.recovered,
                "unrecovered": self.unrecovered}

    def summary(self) -> str:
        if not self.events:
            return "healthy: 0 incidents"
        return (f"{len(self.events)} incidents,"
                f" {self.recovered} recovered,"
                f" {self.unrecovered} unrecovered;"
                f" rungs: {self.rungs_fired()}")

    def __repr__(self):
        return f"HealthReport({self.summary()})"


class StepWatchdog:
    """Wraps ``world.step()`` with validate / rollback / degrade."""

    def __init__(self, world):
        self.world = world
        self.health = HealthReport()
        self.quarantined_uids = set()

    # -- stepping -------------------------------------------------------
    def step(self, driver=None):
        """One guarded sub-step; returns the HealthEvent if the step
        needed recovery, else None.

        ``driver`` (the benchmark's per-sub-step callback) runs inside
        the guarded region: a rollback reverts its effects (registered
        actors included) and each retry re-runs it.
        """
        world = self.world
        snapshot = WorldSnapshot.capture(world)
        pre_energy = self._total_energy()
        self._plain_step(driver)
        violations = self._check(pre_energy)
        if not violations:
            return None

        event = HealthEvent(snapshot.data["step_index"],
                            world.frame_index, violations)
        for rung in LADDER:
            snapshot.restore(world)
            event.retries += 1
            getattr(self, "_rung_" + rung)(driver, violations, event)
            violations = self._check(pre_energy) or None
            if violations is None:
                event.rung = rung
                event.recovered = True
                break
        else:
            event.rung = "unrecovered"
        self.health.append(event)
        report = world.report
        if report is not None:
            if getattr(report, "health", None) is None:
                report.health = HealthReport()
            report.health.append(event)
        return event

    def _plain_step(self, driver):
        if driver is not None:
            driver()
        self.world.step()

    # -- validation -----------------------------------------------------
    def _total_energy(self) -> float:
        """Kinetic energy over every non-static body, enabled or not.

        Disabled bodies are included so a runaway body that the
        kill-bounds cull disabled mid-step still shows up as an energy
        spike; non-finite bodies are skipped (they trip the NaN check
        instead, and would poison the sum)."""
        total = 0.0
        for body in self.world.bodies:
            if body.is_static or not body.is_finite():
                continue
            total += body.kinetic_energy()
        return total

    def _check(self, pre_energy: float):
        world = self.world
        violations = []

        bad_uids = [b.uid for b in world.bodies
                    if not b.is_static and b.enabled
                    and not b.is_finite()]
        bad_cloth = 0
        for cloth in world.cloths:
            bad_cloth += int((~np.isfinite(cloth.positions)).sum())
            bad_cloth += int((~np.isfinite(cloth.prev_positions)).sum())
        if bad_uids or bad_cloth:
            violations.append(Violation(
                "non_finite",
                f"{len(bad_uids)} bodies, {bad_cloth} cloth vertex "
                f"components non-finite", bad_uids))
        else:
            post_energy = self._total_energy()
            threshold = ENERGY_GAIN_FACTOR * (pre_energy + ENERGY_GAIN_MIN)
            if world.last_blast_bodies == 0 and post_energy > threshold:
                violations.append(Violation(
                    "energy_runaway",
                    f"kinetic energy {pre_energy:.3g} -> "
                    f"{post_energy:.3g} J with no active explosion",
                    self._energy_offenders()))

        if world.last_max_penetration > PENETRATION_LIMIT:
            violations.append(Violation(
                "penetration_runaway",
                f"max penetration {world.last_max_penetration:.3g} m "
                f"exceeds {PENETRATION_LIMIT} m",
                world.last_penetration_uids))

        worst = (0.0, ())
        for residual, uids in world.last_island_residuals:
            if residual > RESIDUAL_LIMIT and residual > worst[0]:
                worst = (residual, uids)
        if worst[0] > 0.0:
            violations.append(Violation(
                "solver_divergence",
                f"PGS residual {worst[0]:.3g} exceeds "
                f"{RESIDUAL_LIMIT}", worst[1]))
        return violations

    def _energy_offenders(self):
        out = []
        for body in self.world.bodies:
            if body.is_static or not body.is_finite():
                continue
            if (body.linear_velocity.length() > 4.0 * MAX_SPEED
                    or body.angular_velocity.length()
                    > 4.0 * MAX_ANGULAR_SPEED):
                out.append(body.uid)
        return out

    # -- degradation ladder ---------------------------------------------
    def _rung_double_iterations(self, driver, violations, event):
        cfg = self.world.config
        saved = cfg.solver_iterations
        cfg.solver_iterations = saved * 2
        try:
            self._plain_step(driver)
        finally:
            cfg.solver_iterations = saved

    def _rung_half_dt(self, driver, violations, event):
        """Retry as two half-dt sub-steps covering the same interval.

        The driver runs once (it models per-logical-sub-step input);
        ``step_index`` advances by two for this interval."""
        cfg = self.world.config
        saved = cfg.dt
        cfg.dt = saved * 0.5
        try:
            if driver is not None:
                driver()
            self.world.step()
            self.world.step()
        finally:
            cfg.dt = saved

    def _rung_clamp_velocities(self, driver, violations, event):
        if driver is not None:
            driver()
        self._clamp_velocities()
        self.world.step()
        self._clamp_velocities()

    def _rung_quarantine(self, driver, violations, event):
        uids = set()
        for violation in violations:
            uids.update(violation.body_uids)
        for body in self.world.bodies:
            if body.uid in uids and not body.is_static:
                body.enabled = False
                # Park the corpse: a quarantined runaway must not keep
                # its huge velocity in the energy audit.
                body.linear_velocity = Vec3()
                body.angular_velocity = Vec3()
        self.quarantined_uids |= uids
        event.quarantined_uids = tuple(sorted(uids))
        self._plain_step(driver)

    def _clamp_velocities(self):
        for body in self.world.bodies:
            if body.is_static or not body.enabled:
                continue
            if not body.is_finite():
                continue
            speed = body.linear_velocity.length()
            if speed > MAX_SPEED:
                body.linear_velocity = body.linear_velocity * (
                    MAX_SPEED / speed)
            spin = body.angular_velocity.length()
            if spin > MAX_ANGULAR_SPEED:
                body.angular_velocity = body.angular_velocity * (
                    MAX_ANGULAR_SPEED / spin)
