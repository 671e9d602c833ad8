"""Joint rows, built in C straight into a :class:`~.solver.PackedRows`.

``build_joint_rows`` gathers one table row per ball, hinge or fixed
joint (its rows' place, kind, body slots, local anchors, and a hinge's
local axes and motor or a fixed joint's rest orientation) and hands the
table to ``pgs_joints`` in ``pgs.c``, which restates each joint's
``begin_step`` term for term: three anchor rows, then a hinge's two
axis rows and optional motor row or a fixed joint's three orientation
rows.  Joint rows read only poses, so they are built after every
contact's warm start without changing a bit.
"""

from __future__ import annotations

from array import array

from . import solver

_NO_EXTRA = (0.0,) * 8


def build_joint_rows(pack, dt, erp):
    """Build every joint row of ``pack`` (a :class:`~.solver.PackedRows`
    that :func:`~.rows.build_contact_rows` laid out)."""
    slot = pack.slot
    table = []
    for joint, at, _end, kind in pack.joints:
        la = joint.anchor_local_a
        lb = joint.anchor_local_b
        table += (at, slot(joint.body_a), slot(joint.body_b), kind,
                  la.x, la.y, la.z, lb.x, lb.y, lb.z)
        if kind == solver.FIXED:
            q = joint.q_rel
            table += (q.w, q.x, q.y, q.z, 0.0, 0.0, 0.0, 0.0)
        elif kind == solver.BALL:
            table += _NO_EXTRA
        else:
            aa = joint.axis_local_a
            ab = joint.axis_local_b
            motor = ((joint.motor_velocity, joint.motor_max_force)
                     if kind == solver.MOTOR_HINGE else (0.0, 0.0))
            table += (aa.x, aa.y, aa.z, ab.x, ab.y, ab.z, *motor)
    table = array("d", table)  # held: the call reads its address
    pack.lib.pgs_joints(solver._addr(table), len(pack.joints),
                        erp / dt, dt, solver._addr(pack.slots),
                        solver._addr(pack.rows),
                        solver._addr(pack.impulses))
