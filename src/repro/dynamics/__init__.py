"""Rigid-body dynamics: bodies, joints, islands, the PGS solver."""

from .body import Body
from .islands import Island, UnionFind, build_islands
from .joints import (
    BallJoint,
    ContactJoint,
    FixedJoint,
    HingeJoint,
    Joint,
)
from .solver import Row, SolveStats, solve_island

__all__ = [
    "Body",
    "Row",
    "SolveStats",
    "solve_island",
    "Joint",
    "ContactJoint",
    "BallJoint",
    "HingeJoint",
    "FixedJoint",
    "Island",
    "UnionFind",
    "build_islands",
]
