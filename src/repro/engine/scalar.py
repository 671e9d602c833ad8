"""The scalar kernel set: the per-object reference for each phase.

``World`` binds one kernel set at construction and calls it by phase
name; this module is the ``backend="scalar"`` set and
:mod:`repro.fastpath.kernels` the ``"numpy"`` one, function for
function.  The code here is the oracle every differential test compares
the numpy kernels against, so it stays plain per-object Python with the
arithmetic spelt out in evaluation order.
"""

from __future__ import annotations

from ..collision import BROADPHASES
from ..collision import ccd as ccd_mod
from ..collision import collide as collide_pair
from ..dynamics import solve_island
from ..dynamics.joints import ERP
from ..profiling import task_cost_narrowphase

#: A pair keeps at most this many contacts, the deepest first.
MAX_CONTACTS_PER_PAIR = 4


def make_broadphase(name: str):
    return BROADPHASES[name]()


def narrowphase(world, pairs, report, test_pairs):
    """Phase 2 around a pair tester; both ``collide`` kernels run this.

    ``test_pairs`` maps the pairs that survive the world's collision
    filters to one contact list per pair.  Everything else happens
    here, once: the per-pair contact cap, the penetration and
    contacted-body health signals, and the report counters.  Contacts
    come back in pair order.
    """
    filtered = []
    np_geom_ids = []
    np_body_ids = []
    for ga, gb in pairs:
        if world._pair_filtered(ga, gb):
            continue
        np_geom_ids.extend((ga.uid, gb.uid))
        for g in (ga, gb):
            if g.body is not None:
                np_body_ids.append(g.body.uid)
        filtered.append((ga, gb))

    contacts = []
    world._contacted_bodies = set()
    world.last_max_penetration = 0.0
    world.last_penetration_uids = ()
    # Counters and task costs are committed in one bulk call per sweep:
    # integer-valued float sums and task lists appended in pair order,
    # so the report is what per-pair calls would have produced.
    task_costs = []
    for (ga, gb), found in zip(filtered, test_pairs(filtered)):
        if len(found) > MAX_CONTACTS_PER_PAIR:
            found = sorted(found, key=lambda c: -c.depth)
            found = found[:MAX_CONTACTS_PER_PAIR]
        task_costs.append(task_cost_narrowphase(len(found)))
        if found:
            for body in (ga.body, gb.body):
                if body is not None:
                    world._contacted_bodies.add(body.uid)
            for c in found:
                if c.depth > world.last_max_penetration:
                    world.last_max_penetration = c.depth
                    world.last_penetration_uids = tuple(
                        g.body.uid for g in (ga, gb)
                        if g.body is not None)
            contacts.extend(found)
    report.count("narrowphase", tests=len(filtered),
                 contacts=len(contacts))
    report.add_tasks("narrowphase", task_costs)
    report.touch("narrowphase", "geom", np_geom_ids)
    report.touch("narrowphase", "body", np_body_ids)
    report.touch("narrowphase", "contact", range(len(contacts)),
                 writes=True)
    return contacts


def _collide_each(pairs):
    return [collide_pair(ga, gb) for ga, gb in pairs]


def collide(world, pairs, report):
    return narrowphase(world, pairs, report, _collide_each)


def apply_forces(world, dt: float):
    g = world.config.gravity
    lin_k = max(0.0, 1.0 - world.config.linear_damping * dt)
    ang_k = max(0.0, 1.0 - world.config.angular_damping * dt)
    for body in world.bodies:
        if body.is_static or not body.enabled:
            continue
        body.refresh_world_inertia()
        if body.sleeping:
            body.clear_accumulators()
            continue
        body.linear_velocity = (
            body.linear_velocity
            + (g * body.gravity_scale + body.force * body.inv_mass) * dt
        ) * lin_k
        body.angular_velocity = (
            body.angular_velocity
            + (body.inv_inertia_world * body.torque) * dt
        ) * ang_k
        body.clear_accumulators()


def build_rows(world, islands, dt: float):
    """Constraint rows for each island, warm-started from the world's
    impulse cache; one row list per island."""
    cfg = world.config
    cache = world._impulse_cache
    islands_rows = []
    for island in islands:
        rows = []
        for cj in island.contact_joints:
            cj_rows = cj.begin_step(dt, ERP)
            if cfg.warm_starting:
                # The cache holds the normal impulse, then the friction
                # impulses if the contact had friction.
                for row, imp in zip(cj_rows, cache.get(cj.cache_key, ())):
                    row.warm_start(imp)
            rows.extend(cj_rows)
        for joint in island.joints:
            rows.extend(joint.begin_step(dt, ERP))
        islands_rows.append(rows)
    return islands_rows


def solve(islands_rows, iterations: int):
    return [solve_island(rows, iterations) for rows in islands_rows]


def integrate(world, bodies, dt: float):
    bounds = world.config.world_bounds
    # ``config.ccd=False`` ablates the swept test entirely; the
    # module threshold stays the tuning knob when it is on.
    ccd_threshold = (ccd_mod.CCD_MOTION_THRESHOLD
                     if world.config.ccd else float("inf"))
    for body in bodies:
        if body.sleeping:
            continue
        motion = body.linear_velocity * dt
        if motion.length() > ccd_threshold:
            # Continuous collision: sweep fast movers so bullets
            # can't tunnel through thin structures in one sub-step.
            # Velocity is kept — the contact solver resolves the
            # impact next step from the clamped position.
            clamped = ccd_mod.sweep_clamp(world, body, motion)
            if clamped is not None:
                body.position = clamped
                body.orientation = body.orientation.integrated(
                    body.angular_velocity, dt)
                body._inv_inertia_world = None
                if world.report is not None:
                    world.report.count("narrowphase", ccd_clamps=1)
                continue
        body.position = body.position + body.linear_velocity * dt
        body.orientation = body.orientation.integrated(
            body.angular_velocity, dt)
        body._inv_inertia_world = None
        # Kill-bounds cull: stray projectiles and blasted debris
        # that leave the arena stop simulating (and stop inflating
        # broadphase extents) instead of travelling forever.
        p = body.position
        if (abs(p.x) > bounds or abs(p.y) > bounds
                or abs(p.z) > bounds):
            body.enabled = False
            world.culled += 1


def step_cloths(world, colliders, dt: float):
    """Advance every cloth one sub-step; one stats dict per cloth."""
    return [cloth.step(dt, world.config.gravity, colliders)
            for cloth in world.cloths]
