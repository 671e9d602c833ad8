"""Batched joint-row construction (bit-identical to the scalar path).

Ball, hinge, and fixed joints all start from the same three anchor rows
(``Joint._anchor_rows``): two quaternion rotations, a world-space error,
and three ``Row`` constructions whose effective masses are quadratic
forms in the anchor arm.  Hinges add two angular rows around the axis
frame; fixed joints add three angular rows from the relative-orientation
error.  All of that reads only positions and orientations, so it batches
across every joint of every island in one NumPy pass that restates the
scalar expressions term for term (including the multiplications by the
basis axes' 0/1 components, so even the signs of zeros match).

Hinge motor rows, the one rare piece, are assembled through the ordinary
``Row`` constructor.
"""

from __future__ import annotations

import numpy as np

from ..dynamics.joints import FixedJoint, HingeJoint
from ..dynamics.solver import Row
from ..math3d import Vec3
from .rows import _inv_k, _make_row, _orthonormal, _rotate, _vec

_INF = float("inf")
_ZERO = Vec3()
_AXES = (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
_NEG_AXES = tuple(-a for a in _AXES)
_E = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _qmul(aw, ax, ay, az, bw, bx, by, bz):
    """Quaternion.__mul__, componentwise."""
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _qnormalized(w, x, y, z):
    """Quaternion.normalized (identity below the norm epsilon)."""
    n = np.sqrt(w * w + x * x + y * y + z * z)
    small = n < 1e-12
    inv = np.where(small, 0.0, 1.0 / n)
    return (np.where(small, 1.0, w * inv), np.where(small, 0.0, x * inv),
            np.where(small, 0.0, y * inv), np.where(small, 0.0, z * inv))


class _Bodies:
    """Per-joint body data for one batch pass."""

    __slots__ = ("q", "p", "ima", "imb", "Ia", "Ib", "a_dyn", "b_dyn")

    def __init__(self, joints):
        m = len(joints)
        self.q = np.empty((m, 8))
        self.p = np.empty((m, 6))
        self.ima = np.zeros(m)
        self.imb = np.zeros(m)
        self.Ia = np.zeros((m, 9))
        self.Ib = np.zeros((m, 9))
        self.a_dyn = np.zeros(m, dtype=bool)
        self.b_dyn = np.zeros(m, dtype=bool)
        for i, j in enumerate(joints):
            a = j.body_a
            b = j.body_b
            qa = a.orientation
            qb = b.orientation
            pa = a.position
            pb = b.position
            self.q[i] = (qa.w, qa.x, qa.y, qa.z, qb.w, qb.x, qb.y, qb.z)
            self.p[i] = (pa.x, pa.y, pa.z, pb.x, pb.y, pb.z)
            if not a.is_static:
                self.a_dyn[i] = True
                self.ima[i] = a.inv_mass
                (self.Ia[i, 0], self.Ia[i, 1], self.Ia[i, 2]), \
                    (self.Ia[i, 3], self.Ia[i, 4], self.Ia[i, 5]), \
                    (self.Ia[i, 6], self.Ia[i, 7], self.Ia[i, 8]) = \
                    a.inv_inertia_world.m
            if not b.is_static:
                self.b_dyn[i] = True
                self.imb[i] = b.inv_mass
                (self.Ib[i, 0], self.Ib[i, 1], self.Ib[i, 2]), \
                    (self.Ib[i, 3], self.Ib[i, 4], self.Ib[i, 5]), \
                    (self.Ib[i, 6], self.Ib[i, 7], self.Ib[i, 8]) = \
                    b.inv_inertia_world.m

    def subset(self, sel):
        """The joints at indices ``sel`` of this batch."""
        sub = _Bodies.__new__(_Bodies)
        sel = np.asarray(sel, dtype=np.intp)
        for name in _Bodies.__slots__:
            setattr(sub, name, getattr(self, name)[sel])
        return sub


def _angular_rows(bod, ex, ey, ez, rhs, joint_of, out):
    """Rows with zero linear parts: ang_a = e, ang_b = -e."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        ik = _inv_k(0.0, 0.0, 0.0, ex, ey, ez, -ex, -ey, -ez,
                    bod.ima, bod.imb, bod.Ia, bod.Ib,
                    bod.a_dyn, bod.b_dyn)
    exl, eyl, ezl = ex.tolist(), ey.tolist(), ez.tolist()
    rhl = rhs.tolist()
    ikl = ik.tolist()
    for i, j in enumerate(joint_of):
        out[i].append(_make_row(
            j.body_a, j.body_b, _ZERO,
            _vec(exl[i], eyl[i], ezl[i]), _ZERO,
            _vec(-exl[i], -eyl[i], -ezl[i]),
            rhl[i], -_INF, _INF, None, 0.0, j, ikl[i]))


def build_joint_rows(joints, dt, erp):
    """``begin_step`` for many ball/hinge/fixed joints at once.

    Returns a list aligned with ``joints``: each joint's row list, also
    stored on ``joint.rows`` as ``begin_step`` does.
    """
    if not joints:
        return []
    hinges = []
    fixeds = []
    for i, j in enumerate(joints):
        t = type(j)
        if t is HingeJoint:
            hinges.append(i)
        elif t is FixedJoint:
            fixeds.append(i)

    beta = erp / dt
    bod = _Bodies(joints)
    m = len(joints)
    anchors = np.empty((m, 6))
    for i, j in enumerate(joints):
        la = j.anchor_local_a
        lb = j.anchor_local_b
        anchors[i] = (la.x, la.y, la.z, lb.x, lb.y, lb.z)

    q = bod.q
    p = bod.p
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        rax, ray, raz = _rotate(q[:, 0], q[:, 1], q[:, 2], q[:, 3],
                                anchors[:, 0], anchors[:, 1], anchors[:, 2])
        rbx, rby, rbz = _rotate(q[:, 4], q[:, 5], q[:, 6], q[:, 7],
                                anchors[:, 3], anchors[:, 4], anchors[:, 5])
        errx = (p[:, 0] + rax) - (p[:, 3] + rbx)
        erry = (p[:, 1] + ray) - (p[:, 4] + rby)
        errz = (p[:, 2] + raz) - (p[:, 5] + rbz)

        per_axis = []
        for e0, e1, e2 in _E:
            aax = ray * e2 - raz * e1
            aay = raz * e0 - rax * e2
            aaz = rax * e1 - ray * e0
            abx = -(rby * e2 - rbz * e1)
            aby = -(rbz * e0 - rbx * e2)
            abz = -(rbx * e1 - rby * e0)
            rhs = -beta * ((errx * e0 + erry * e1) + errz * e2)
            ik = _inv_k(e0, e1, e2, aax, aay, aaz, abx, aby, abz,
                        bod.ima, bod.imb, bod.Ia, bod.Ib,
                        bod.a_dyn, bod.b_dyn)
            per_axis.append((aax.tolist(), aay.tolist(), aaz.tolist(),
                             abx.tolist(), aby.tolist(), abz.tolist(),
                             rhs.tolist(), ik.tolist()))

    out = []
    for i, j in enumerate(joints):
        rows = []
        for k in range(3):
            aax, aay, aaz, abx, aby, abz, rhs, ik = per_axis[k]
            rows.append(_make_row(
                j.body_a, j.body_b, _AXES[k],
                _vec(aax[i], aay[i], aaz[i]), _NEG_AXES[k],
                _vec(abx[i], aby[i], abz[i]),
                rhs[i], -_INF, _INF, None, 0.0, j, ik[i]))
        j.rows = rows
        out.append(rows)

    if hinges:
        hbod = bod.subset(hinges)
        hjoints = [joints[i] for i in hinges]
        hm = len(hinges)
        axes_l = np.empty((hm, 6))
        for i, j in enumerate(hjoints):
            la = j.axis_local_a
            lb = j.axis_local_b
            axes_l[i] = (la.x, la.y, la.z, lb.x, lb.y, lb.z)
        hq = hbod.q
        with np.errstate(invalid="ignore", over="ignore",
                         divide="ignore"):
            ax, ay, az = _rotate(hq[:, 0], hq[:, 1], hq[:, 2], hq[:, 3],
                                 axes_l[:, 0], axes_l[:, 1], axes_l[:, 2])
            bx, by, bz = _rotate(hq[:, 4], hq[:, 5], hq[:, 6], hq[:, 7],
                                 axes_l[:, 3], axes_l[:, 4], axes_l[:, 5])
            ex = ay * bz - az * by
            ey = az * bx - ax * bz
            ez = ax * by - ay * bx
            px, py, pz, qx, qy, qz = _orthonormal(ax, ay, az)
        hrows = [j.rows for j in hjoints]
        _angular_rows(hbod, px, py, pz,
                      beta * ((ex * px + ey * py) + ez * pz),
                      hjoints, hrows)
        _angular_rows(hbod, qx, qy, qz,
                      beta * ((ex * qx + ey * qy) + ez * qz),
                      hjoints, hrows)
        axl, ayl, azl = ax.tolist(), ay.tolist(), az.tolist()
        for i, j in enumerate(hjoints):
            rows = hrows[i]
            if j.motor_velocity is not None and j.motor_max_force > 0.0:
                cap = j.motor_max_force * dt
                axis_a = _vec(axl[i], ayl[i], azl[i])
                rows.append(Row(
                    j.body_a, j.body_b,
                    lin_a=_ZERO, ang_a=axis_a,
                    lin_b=_ZERO, ang_b=-axis_a,
                    rhs=-j.motor_velocity,
                    lo=-cap, hi=cap,
                    joint=j,
                ))

    if fixeds:
        fbod = bod.subset(fixeds)
        fjoints = [joints[i] for i in fixeds]
        fm = len(fixeds)
        qrel = np.empty((fm, 4))
        for i, j in enumerate(fjoints):
            r = j.q_rel
            qrel[i] = (r.w, r.x, r.y, r.z)
        fq = fbod.q
        with np.errstate(invalid="ignore", over="ignore",
                         divide="ignore"):
            tw, tx, ty, tz = _qnormalized(*_qmul(
                fq[:, 4], fq[:, 5], fq[:, 6], fq[:, 7],
                qrel[:, 0], qrel[:, 1], qrel[:, 2], qrel[:, 3]))
            # q_err = (qa * target.conjugate()).normalized()
            ew, ex_, ey_, ez_ = _qnormalized(*_qmul(
                fq[:, 0], fq[:, 1], fq[:, 2], fq[:, 3],
                tw, -tx, -ty, -tz))
            flip = ew < 0.0
            ex_ = np.where(flip, -ex_, ex_)
            ey_ = np.where(flip, -ey_, ey_)
            ez_ = np.where(flip, -ez_, ez_)
            vx = 2.0 * ex_
            vy = 2.0 * ey_
            vz = 2.0 * ez_
        frows = [j.rows for j in fjoints]
        for k, (e0, e1, e2) in enumerate(_E):
            with np.errstate(invalid="ignore", over="ignore",
                             divide="ignore"):
                ik = _inv_k(0.0, 0.0, 0.0, e0, e1, e2, -e0, -e1, -e2,
                            fbod.ima, fbod.imb, fbod.Ia, fbod.Ib,
                            fbod.a_dyn, fbod.b_dyn)
                rhs = -beta * ((vx * e0 + vy * e1) + vz * e2)
            rhl = rhs.tolist()
            ikl = ik.tolist()
            for i, j in enumerate(fjoints):
                # ang_a / ang_b carry the exact basis vectors the
                # scalar path stores (integer zeros, not -0.0).
                frows[i].append(_make_row(
                    j.body_a, j.body_b, _ZERO, _AXES[k], _ZERO,
                    _NEG_AXES[k], rhl[i], -_INF, _INF, None, 0.0,
                    j, ikl[i]))

    return out
