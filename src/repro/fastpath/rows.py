"""Contact rows, built in C straight into a :class:`~.solver.PackedRows`.

``build_contact_rows`` lays out the sub-step's islands, gathers one
table row per ``ContactJoint`` (its rows' place, body slots, normal,
point, depth, friction, restitution and warm-start impulses) and hands
the table to ``pgs_contacts`` in ``pgs.c``.  The C loop restates
``ContactJoint.begin_step`` and ``Row.warm_start`` term for term, in
the scalar loop's order: a contact's restitution bounce reads the body
velocities that every earlier contact's warm start has already nudged.
"""

from __future__ import annotations

from array import array

from ..dynamics.joints import ContactJoint
from . import solver

_WARM = (0.0, 0.0, 0.0)


def build_contact_rows(islands, lib, dt, erp, cache):
    """Pack ``islands`` and build every contact row into the pack with
    ``lib``; ``cache`` is the previous step's impulse cache, or None
    when warm starting is off.  Returns the pack."""
    pack = solver.PackedRows(islands, lib)
    slot = pack.slot
    table = []
    for cj, at, _end in pack.contacts:
        c = cj.contact
        n = c.normal
        p = c.position
        # The oracle zips the contact's (at most three) rows with its
        # cache entry, so values past the third are never read; a
        # restored snapshot may carry them, and the table's stride
        # must not.
        warm = () if cache is None else tuple(cache.get(cj.cache_key,
                                                        ()))[:3]
        table += (at, slot(cj.body_a), slot(cj.body_b), n.x, n.y, n.z,
                  p.x, p.y, p.z, c.depth, cj.friction, cj.restitution,
                  len(warm), *warm, *_WARM[len(warm):])
    table = array("d", table)  # held: the call reads its address
    lib.pgs_contacts(solver._addr(table), len(pack.contacts),
                     erp / dt, ContactJoint.PENETRATION_SLOP,
                     ContactJoint.MAX_BIAS_VELOCITY,
                     ContactJoint.RESTITUTION_THRESHOLD,
                     solver._addr(pack.slots), solver._addr(pack.rows),
                     solver._addr(pack.impulses))
    return pack
