"""Collision detection: geoms, broadphase strategies, narrowphase."""

from .broadphase import (
    BROADPHASES,
    BruteForceBroadphase,
    SpatialHashBroadphase,
    SweepAndPrune,
)
from .geom import Geom
from .narrowphase import CONTACT_MARGIN, Contact, collide

__all__ = [
    "Geom",
    "Contact",
    "collide",
    "CONTACT_MARGIN",
    "SweepAndPrune",
    "BruteForceBroadphase",
    "SpatialHashBroadphase",
    "BROADPHASES",
]
