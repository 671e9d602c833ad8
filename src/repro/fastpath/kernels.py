"""The numpy kernel set: :mod:`repro.engine.scalar`'s phases over the
SoA kernels of this package.

Every function reaches its kernel as ``module.func`` at call time, so a
wrapper patched onto e.g. ``solver.solve_islands`` (how ``bench/``
times each layer from outside) is what a step runs.
"""

from __future__ import annotations

from ..collision import BROADPHASES
from . import bodies, cloth, joints, narrowphase, rows, solver
from .broadphase import VectorSweepAndPrune


def make_broadphase(name: str):
    if name == "sap":
        return VectorSweepAndPrune()
    return BROADPHASES[name]()


def collide(world, pairs, report):
    return narrowphase.collide_pairs(world, pairs, report)


def apply_forces(world, dt: float):
    bodies.apply_forces(world, dt)


def build_rows(world, islands, dt: float):
    """Contacts batch across islands in island order; warm starts
    (island-local velocity nudges) interleave in the same global
    sequence the scalar loop produces.  Joints only read positions /
    own-island velocities, so building them afterwards reads identical
    state."""
    cfg = world.config
    erp = cfg.erp
    built = rows.build_contact_rows(
        [cj for isl in islands for cj in isl.contact_joints], dt, erp,
        world._impulse_cache if cfg.warm_starting else None)
    jbuilt = joints.build_joint_rows(
        [j for isl in islands for j in isl.joints], dt, erp)
    pos = 0
    jpos = 0
    islands_rows = []
    for island in islands:
        island_rows = []
        for _cj in island.contact_joints:
            island_rows.extend(built[pos])
            pos += 1
        for _joint in island.joints:
            island_rows.extend(jbuilt[jpos])
            jpos += 1
        islands_rows.append(island_rows)
    return islands_rows


def solve(islands_rows, iterations: int):
    return solver.solve_islands(islands_rows, iterations)


def integrate(world, island_bodies, dt: float):
    bodies.integrate(world, island_bodies, dt)


def step_cloths(world, colliders, dt: float):
    bounds = cloth.collider_bounds(colliders) if colliders else None
    return [cloth.step_cloth(c, dt, world.config.gravity, colliders,
                             bounds)
            for c in world.cloths]
