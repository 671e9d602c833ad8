"""Batched contact-row construction (bit-identical to the scalar path).

``ContactJoint.begin_step`` + ``Row.__init__`` dominate island setup in
contact-heavy scenes: per contact they build three Jacobians (cross
products), three effective masses (two quadratic forms each), and the
Baumgarte bias.  All of that depends only on positions and inertia —
state that warm starting never touches — so it batches across every
contact of every island in one NumPy pass restating the scalar
expressions term for term.

What cannot batch is kept sequential, in the scalar loop's exact order:
the restitution bounce reads body *velocities* (which earlier contacts'
warm starts have already nudged), and warm starting itself applies
impulses body by body.  Those run per contact, unboxed, after the batch
pass.
"""

from __future__ import annotations

import numpy as np

from ..dynamics.joints import ContactJoint
from ..dynamics.solver import Row
from ..math3d import Vec3

_SLOP = ContactJoint.PENETRATION_SLOP
_MAX_BIAS = ContactJoint.MAX_BIAS_VELOCITY
_REST_THRESHOLD = ContactJoint.RESTITUTION_THRESHOLD
_INF = float("inf")


def _rotate(w, x, y, z, vx, vy, vz):
    """Quaternion.rotate, componentwise (floats or arrays)."""
    uvx = y * vz - z * vy
    uvy = z * vx - x * vz
    uvz = x * vy - y * vx
    uuvx = y * uvz - z * uvy
    uuvy = z * uvx - x * uvz
    uuvz = x * uvy - y * uvx
    return (vx + (uvx * w + uuvx) * 2.0,
            vy + (uvy * w + uuvy) * 2.0,
            vz + (uvz * w + uuvz) * 2.0)


def _orthonormal(nx, ny, nz):
    """n.any_orthonormal() and n.cross(that), componentwise."""
    use_x = np.abs(nx) < 0.57735
    bx = np.where(use_x, 1.0, 0.0)
    by = np.where(use_x, 0.0, 1.0)
    cx = ny * 0.0 - nz * by
    cy = nz * bx - nx * 0.0
    cz = nx * by - ny * bx
    cl = np.sqrt((cx * cx + cy * cy) + cz * cz)
    inv_cl = np.where(cl < 1e-12, 0.0, 1.0 / cl)
    px = np.where(cl < 1e-12, 0.0, cx * inv_cl)
    py = np.where(cl < 1e-12, 0.0, cy * inv_cl)
    pz = np.where(cl < 1e-12, 0.0, cz * inv_cl)
    qx = ny * pz - nz * py
    qy = nz * px - nx * pz
    qz = nx * py - ny * px
    return px, py, pz, qx, qy, qz


def _quad_form(wx, wy, wz, im):
    """``w.dot(I_world * w)`` with Mat3.__mul__'s row sums."""
    c0 = im[:, 0] * wx + im[:, 1] * wy + im[:, 2] * wz
    c1 = im[:, 3] * wx + im[:, 4] * wy + im[:, 5] * wz
    c2 = im[:, 6] * wx + im[:, 7] * wy + im[:, 8] * wz
    return wx * c0 + wy * c1 + wz * c2


def _inv_k(dx, dy, dz,
           aax, aay, aaz, abx, aby, abz,
           ima, imb, Ia, Ib, a_dyn, b_dyn):
    """``Row._effective_mass_inv`` for Jacobian (d, aa, -d, ab)."""
    ls = (dx * dx + dy * dy) + dz * dz
    ta_lin = np.where(a_dyn, ima * ls, 0.0)
    ta_ang = np.where(a_dyn, _quad_form(aax, aay, aaz, Ia), 0.0)
    # lin_b = -d: every product in its length_squared squares the
    # negation away, so the scalar value is bit-equal to ls.
    tb_lin = np.where(b_dyn, imb * ls, 0.0)
    tb_ang = np.where(b_dyn, _quad_form(abx, aby, abz, Ib), 0.0)
    k = (((0.0 + ta_lin) + ta_ang) + tb_lin) + tb_ang
    return np.where(k < 1e-12, 0.0, 1.0 / k)


def _make_row(a, b, lin_a, ang_a, lin_b, ang_b, rhs, lo, hi,
              friction_of, friction_coeff, joint, inv_k):
    r = Row.__new__(Row)
    r.body_a = a
    r.body_b = b
    r.lin_a = lin_a
    r.ang_a = ang_a
    r.lin_b = lin_b
    r.ang_b = ang_b
    r.rhs = rhs
    r.cfm = 0.0
    r.lo = lo
    r.hi = hi
    r.impulse = 0.0
    r.friction_of = friction_of
    r.friction_coeff = friction_coeff
    r.joint = joint
    r.inv_k = inv_k
    return r


def _vec(x, y, z):
    v = Vec3.__new__(Vec3)
    v.x = x
    v.y = y
    v.z = z
    return v


def _warm_start(row, imp):
    """``Row.warm_start`` unboxed (same products, same order)."""
    row.impulse = imp
    if imp == 0.0:
        return
    a = row.body_a
    if a is not None and not a.is_static:
        s = imp * a.inv_mass
        la = row.lin_a
        v = a.linear_velocity
        a.linear_velocity = _vec(v.x + la.x * s, v.y + la.y * s,
                                 v.z + la.z * s)
        aa = row.ang_a
        wx, wy, wz = aa.x * imp, aa.y * imp, aa.z * imp
        m = a.inv_inertia_world.m
        m0, m1, m2 = m
        w = a.angular_velocity
        a.angular_velocity = _vec(
            w.x + (m0[0] * wx + m0[1] * wy + m0[2] * wz),
            w.y + (m1[0] * wx + m1[1] * wy + m1[2] * wz),
            w.z + (m2[0] * wx + m2[1] * wy + m2[2] * wz))
    b = row.body_b
    if b is not None and not b.is_static:
        s = imp * b.inv_mass
        lb = row.lin_b
        v = b.linear_velocity
        b.linear_velocity = _vec(v.x + lb.x * s, v.y + lb.y * s,
                                 v.z + lb.z * s)
        ab = row.ang_b
        wx, wy, wz = ab.x * imp, ab.y * imp, ab.z * imp
        m = b.inv_inertia_world.m
        m0, m1, m2 = m
        w = b.angular_velocity
        b.angular_velocity = _vec(
            w.x + (m0[0] * wx + m0[1] * wy + m0[2] * wz),
            w.y + (m1[0] * wx + m1[1] * wy + m1[2] * wz),
            w.z + (m2[0] * wx + m2[1] * wy + m2[2] * wz))


def build_contact_rows(contact_joints, dt, erp, cache):
    """begin_step + warm start for many ContactJoints at once.

    ``contact_joints`` spans islands in island order; ``cache`` is the
    previous step's impulse cache, or None when warm starting is off.
    Returns one row list per joint, aligned with the input.
    """
    m = len(contact_joints)
    if m == 0:
        return []

    # Bodies repeat across many contacts, so their mass/inertia/position
    # gather into a small per-body table (slot 0 = "no body") that the
    # per-contact arrays fancy-index.
    body_idx = {}
    b_pos = [(0.0, 0.0, 0.0)]
    b_im = [0.0]
    b_inertia = [(0.0,) * 9]
    b_dynamic = [False]

    def bslot(body):
        if body is None:
            return 0
        s = body_idx.get(body.uid)
        if s is None:
            s = body_idx[body.uid] = len(b_pos)
            p = body.position
            b_pos.append((p.x, p.y, p.z))
            if body.is_static:
                b_im.append(0.0)
                b_inertia.append(b_inertia[0])
                b_dynamic.append(False)
            else:
                b_im.append(body.inv_mass)
                m0, m1, m2 = body.inv_inertia_world.m
                b_inertia.append((m0[0], m0[1], m0[2],
                                  m1[0], m1[1], m1[2],
                                  m2[0], m2[1], m2[2]))
                b_dynamic.append(True)
        return s

    n_l = []
    p_l = []
    depth_l = []
    sa_l = []
    sb_l = []
    for cj in contact_joints:
        c = cj.contact
        nv = c.normal
        pv = c.position
        n_l.append((nv.x, nv.y, nv.z))
        p_l.append((pv.x, pv.y, pv.z))
        depth_l.append(c.depth)
        sa_l.append(bslot(cj.body_a))
        sb_l.append(bslot(cj.body_b))

    n_arr = np.array(n_l)
    cpos = np.array(p_l)
    depth = np.array(depth_l)
    sa = np.array(sa_l, dtype=np.intp)
    sb = np.array(sb_l, dtype=np.intp)
    pos_t = np.array(b_pos)
    im_t = np.array(b_im)
    inertia_t = np.array(b_inertia)
    dyn_t = np.array(b_dynamic)
    # ra/rb: c.position - body.position (exact same subtractions), a
    # zero vector where the endpoint is absent.
    ra = np.where((sa > 0)[:, None], cpos - pos_t[sa], 0.0)
    rb = np.where((sb > 0)[:, None], cpos - pos_t[sb], 0.0)
    ima = im_t[sa]
    imb = im_t[sb]
    Ia = inertia_t[sa]
    Ib = inertia_t[sb]
    a_dyn = dyn_t[sa]
    b_dyn = dyn_t[sb]

    nx, ny, nz = n_arr[:, 0], n_arr[:, 1], n_arr[:, 2]
    rax, ray, raz = ra[:, 0], ra[:, 1], ra[:, 2]
    rbx, rby, rbz = rb[:, 0], rb[:, 1], rb[:, 2]

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # Friction frame: t1 = n.any_orthonormal(), t2 = n x t1.
        t1x, t1y, t1z, t2x, t2y, t2z = _orthonormal(nx, ny, nz)

        beta = erp / dt
        slop = np.where(depth - _SLOP > 0.0, depth - _SLOP, 0.0)
        scaled = beta * slop
        bias = np.where(_MAX_BIAS < scaled, _MAX_BIAS, scaled)

        def jac(dx, dy, dz):
            # ang_a = ra x d, ang_b = -(rb x d), lin_b = -d.
            aax = ray * dz - raz * dy
            aay = raz * dx - rax * dz
            aaz = rax * dy - ray * dx
            abx = -(rby * dz - rbz * dy)
            aby = -(rbz * dx - rbx * dz)
            abz = -(rbx * dy - rby * dx)
            ik = _inv_k(dx, dy, dz, aax, aay, aaz, abx, aby, abz,
                        ima, imb, Ia, Ib, a_dyn, b_dyn)
            return (aax.tolist(), aay.tolist(), aaz.tolist(),
                    abx.tolist(), aby.tolist(), abz.tolist(),
                    ik.tolist())

        jn = jac(nx, ny, nz)
        j1 = jac(t1x, t1y, t1z)
        j2 = jac(t2x, t2y, t2z)

    bias_l = bias.tolist()
    nlx = (-nx).tolist()
    nly = (-ny).tolist()
    nlz = (-nz).tolist()
    t1c = (t1x.tolist(), t1y.tolist(), t1z.tolist(),
           (-t1x).tolist(), (-t1y).tolist(), (-t1z).tolist())
    t2c = (t2x.tolist(), t2y.tolist(), t2z.tolist(),
           (-t2x).tolist(), (-t2y).tolist(), (-t2z).tolist())
    ra_l = ra.tolist()
    rb_l = rb.tolist()

    out = []
    for i, cj in enumerate(contact_joints):
        a = cj.body_a
        b = cj.body_b
        c = cj.contact
        n = c.normal
        rhs = bias_l[i]
        rest = cj.restitution
        if rest > 0.0:
            # _normal_velocity, unboxed — reads velocities *after* all
            # earlier contacts' warm starts, like the scalar loop.
            rx, ry_, rz_ = ra_l[i]
            vx = vy = vz = 0.0
            if a is not None:
                lv = a.linear_velocity
                av = a.angular_velocity
                vx = (0.0 + lv.x) + (av.y * rz_ - av.z * ry_)
                vy = (0.0 + lv.y) + (av.z * rx - av.x * rz_)
                vz = (0.0 + lv.z) + (av.x * ry_ - av.y * rx)
            if b is not None:
                sx, sy, sz = rb_l[i]
                lv = b.linear_velocity
                av = b.angular_velocity
                vx = (vx - lv.x) - (av.y * sz - av.z * sy)
                vy = (vy - lv.y) - (av.z * sx - av.x * sz)
                vz = (vz - lv.z) - (av.x * sy - av.y * sx)
            vn = n.x * vx + n.y * vy + n.z * vz
            if vn < -_REST_THRESHOLD:
                bounce = -rest * vn
                if bounce > rhs:
                    rhs = bounce
        normal_row = _make_row(
            a, b, n,
            _vec(jn[0][i], jn[1][i], jn[2][i]),
            _vec(nlx[i], nly[i], nlz[i]),
            _vec(jn[3][i], jn[4][i], jn[5][i]),
            rhs, 0.0, _INF, None, 0.0, cj, jn[6][i])
        cj.normal_row = normal_row
        rows = [normal_row]
        mu = cj.friction
        if mu > 0.0:
            r1 = _make_row(
                a, b,
                _vec(t1c[0][i], t1c[1][i], t1c[2][i]),
                _vec(j1[0][i], j1[1][i], j1[2][i]),
                _vec(t1c[3][i], t1c[4][i], t1c[5][i]),
                _vec(j1[3][i], j1[4][i], j1[5][i]),
                0.0, -_INF, _INF, normal_row, mu, cj, j1[6][i])
            r2 = _make_row(
                a, b,
                _vec(t2c[0][i], t2c[1][i], t2c[2][i]),
                _vec(j2[0][i], j2[1][i], j2[2][i]),
                _vec(t2c[3][i], t2c[4][i], t2c[5][i]),
                _vec(j2[3][i], j2[4][i], j2[5][i]),
                0.0, -_INF, _INF, normal_row, mu, cj, j2[6][i])
            cj.tangent_rows = (r1, r2)
            rows.append(r1)
            rows.append(r2)
        cj.rows = rows
        if cache is not None:
            cached = cache.get(cj.cache_key)
            if cached is not None:
                _warm_start(normal_row, cached[0])
                for row, imp in zip(cj.tangent_rows, cached[1:]):
                    _warm_start(row, imp)
        out.append(rows)
    return out
