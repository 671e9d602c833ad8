"""Numeric plausibility validation — the headless stand-in for the
paper's visual verification of each benchmark.

Checks every enabled body for non-finite state, escape from the world
bounds, deep inter-penetration, and joint anchor drift; cloths for
non-finite vertices. ``validate_world`` is part of each benchmark run's
acceptance gate.
"""

from __future__ import annotations

import math

import numpy as np

from ..collision import collide

#: Deepest contact, and worst ball-type anchor drift, that a valid
#: world may show (metres); beyond either the report carries a note.
PENETRATION_TOLERANCE = 0.15
JOINT_TOLERANCE = 0.08


class ValidationReport:
    def __init__(self):
        self.bodies_checked = 0
        self.non_finite_bodies = 0
        self.escaped_bodies = 0
        self.disabled_bodies = 0  # culled or watchdog-quarantined
        self.max_penetration = 0.0
        self.max_joint_drift = 0.0
        self.non_finite_cloth_vertices = 0
        self.unrecovered_incidents = 0  # from an attached HealthReport
        self.notes = []

    @property
    def ok(self) -> bool:
        return (self.non_finite_bodies == 0
                and self.escaped_bodies == 0
                and self.non_finite_cloth_vertices == 0
                and self.unrecovered_incidents == 0)

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (
            f"{status}: {self.bodies_checked} bodies,"
            f" {self.non_finite_bodies} non-finite,"
            f" {self.escaped_bodies} escaped,"
            f" {self.disabled_bodies} disabled,"
            f" max penetration {self.max_penetration:.4f} m,"
            f" max joint drift {self.max_joint_drift:.4f} m"
        )

    def __repr__(self):
        return f"ValidationReport({self.summary()})"


def validate_world(world, health=None) -> ValidationReport:
    """``health`` (a ``repro.resilience.HealthReport``) folds a guarded
    run's incident log into the verdict: unrecovered incidents fail.
    A body escapes once it leaves the world's ``config.world_bounds``."""
    report = ValidationReport()
    bounds = world.config.world_bounds

    # Debris authored for not-yet-triggered prefracture starts disabled
    # by design; don't count it against the run.
    dormant = set()
    for pf in world.prefracture_registry:
        if not pf.broken:
            dormant.update(b.uid for b, _ in pf.debris)

    for body in world.bodies:
        if body.is_static:
            continue
        if not body.enabled:
            if body.uid not in dormant:
                report.disabled_bodies += 1
            continue
        report.bodies_checked += 1
        if not body.is_finite():
            report.non_finite_bodies += 1
            report.notes.append(f"non-finite state on body #{body.uid}")
            continue
        p = body.position
        if max(abs(p.x), abs(p.y), abs(p.z)) > bounds:
            report.escaped_bodies += 1
            report.notes.append(
                f"body #{body.uid} escaped bounds at {p!r}")

    # Penetration audit over current broadphase pairs, found by a fresh
    # broadphase: the world's own keeps its sweep order across frames,
    # so querying it here would change the next frame's swap count.
    live = [g for g in world.geoms if g.enabled]
    audit = world.kernels.make_broadphase(world.config.broadphase)
    for ga, gb in audit.pairs(live):
        if world._pair_filtered(ga, gb):
            continue
        for contact in collide(ga, gb):
            if math.isfinite(contact.depth):
                report.max_penetration = max(report.max_penetration,
                                             contact.depth)
    if report.max_penetration > PENETRATION_TOLERANCE:
        report.notes.append(
            f"max penetration {report.max_penetration:.4f} m exceeds"
            f" tolerance {PENETRATION_TOLERANCE} m")

    # Joint drift: positional error of ball-type anchors.
    for joint in world.joints:
        if joint.broken or not joint.enabled:
            continue
        anchor_error = getattr(joint, "anchor_error", None)
        if anchor_error is not None:
            drift = anchor_error()
            report.max_joint_drift = max(report.max_joint_drift, drift)
    if report.max_joint_drift > JOINT_TOLERANCE:
        report.notes.append(
            f"max joint drift {report.max_joint_drift:.4f} m exceeds"
            f" tolerance {JOINT_TOLERANCE} m")

    for k, cloth in enumerate(world.cloths):
        bad = int((~np.isfinite(cloth.positions)).sum())
        if bad:
            report.non_finite_cloth_vertices += bad
            report.notes.append(
                f"cloth {k} has {bad} non-finite vertex components")

    if health is not None:
        report.unrecovered_incidents = health.unrecovered
        if len(health):
            report.notes.append(f"watchdog: {health.summary()}")

    return report
