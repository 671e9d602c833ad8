"""The numpy kernel set: :mod:`repro.engine.scalar`'s phases over the
SoA and C kernels of this package.

Every function reaches its kernel as ``module.func`` at call time, so a
wrapper patched onto e.g. ``solver.solve_islands`` (how ``bench/``
times each layer from outside) is what a step runs.
"""

from __future__ import annotations

from ..collision import BROADPHASES
from ..dynamics.joints import ERP
from ..engine import scalar
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
    """Every island's rows, built in C into one :class:`~.solver.PackedRows`:
    contacts first, in island order, so their warm starts interleave
    in the sequence the scalar loop produces; then joints, which read
    only poses and so see identical state.  Without the native
    library, the oracle's row lists."""
    lib = solver._native()
    if lib is None:
        return scalar.build_rows(world, islands, dt)
    pack = rows.build_contact_rows(
        islands, lib, dt, ERP,
        world._impulse_cache if world.config.warm_starting else None)
    joints.build_joint_rows(pack, dt, ERP)
    return pack


def solve(built, iterations: int):
    """The C sweep over the pack ``build_rows`` returned, or the oracle
    over the row lists it returns without the native library."""
    if isinstance(built, list):
        return scalar.solve(built, iterations)
    return solver.solve_islands(built, iterations)


def integrate(world, island_bodies, dt: float):
    bodies.integrate(world, island_bodies, dt)


def step_cloths(world, colliders, dt: float):
    bounds = cloth.collider_bounds(colliders) if colliders else None
    return [cloth.step_cloth(c, dt, world.config.gravity, colliders,
                             bounds)
            for c in world.cloths]
