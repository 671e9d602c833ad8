"""Deterministic fault injection for the watchdog tests.

A fault is a ``(step, kind)`` or ``(step, kind, persistent)`` record that
:meth:`FaultInjector.wrap` fires from a scene driver, after the scene's
own input, when ``world.step_index`` reaches ``step``. ``nan_position``
poisons a position, ``huge_impulse`` kicks a body with 1e9 N·s,
``corrupt_cache`` NaNs the first warm-start cache entry (a kick when the
cache is empty) and ``zero_inertia`` makes the inverse inertia infinite.

The target is a seeded pick over the enabled, finite dynamic bodies in
uid order, bound on first firing. A transient fault fires once, so the
watchdog's retry runs clean; a persistent one re-fires on every retry
of its step: rollback rewinds ``step_index`` but not the injector.
"""

import random

from repro.api import Session
from repro.math3d import Mat3, Vec3

KINDS = ("nan_position", "huge_impulse", "corrupt_cache", "zero_inertia")
NAN, INF = float("nan"), float("inf")


class FaultInjector:
    def __init__(self, world, faults, seed):
        self.world = world
        self.seed = seed
        # [step, kind, persistent, bound target uid]; stable by step.
        self.faults = sorted(([*f, False][:3] + [None] for f in faults),
                             key=lambda f: f[0])
        self.injected = []  # (step, kind, target uid)

    def wrap(self, driver):
        def wrapped():
            if driver is not None:
                driver()
            for fault in self.faults:
                self._fire(fault)
        return wrapped

    def _fire(self, fault):
        step, kind, persistent, uid = fault
        world = self.world
        if step != world.step_index or (uid is not None and not persistent):
            return
        if uid is None:
            bodies = sorted((b for b in world.bodies if not b.is_static
                             and b.enabled and b.is_finite()),
                            key=lambda b: b.uid)
            if not bodies:
                return
            rng = random.Random(f"{self.seed}/{step}/{kind}")
            fault[3] = uid = bodies[rng.randrange(len(bodies))].uid
        body = next((b for b in world.bodies if b.uid == uid), None)
        if body is None:
            return
        cache = world._impulse_cache
        if kind == "nan_position":
            body.position = Vec3(NAN, NAN, NAN)
        elif kind == "corrupt_cache" and cache:
            key = min(cache)
            cache[key] = tuple(NAN for _ in cache[key])
        elif kind in ("huge_impulse", "corrupt_cache"):
            body.wake()
            body.apply_impulse(Vec3(1.0e9, 0.0, 0.0))
        else:
            body.inertia_body = Mat3.zero()
            body.inv_inertia_body = Mat3.diagonal(INF, INF, INF)
            body._inv_inertia_world = None
        self.injected.append((step, kind, body.uid))


def run_faulted(spec, faults, frames):
    """``run_scenario``'s session, faulted: (session, injection log)."""
    session = Session.create(spec, isolate_uids=False)
    injector = FaultInjector(session.world, faults, spec.seed)
    session._driver = injector.wrap(session._driver)
    session.step(frames)
    return session, injector.injected
