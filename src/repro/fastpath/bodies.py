"""Unboxed per-body kernels: force application and integration.

These restate ``World._apply_forces`` and ``World._integrate`` with the
same arithmetic in the same order, but without allocating ``Vec3`` /
``Mat3`` / ``Quaternion`` intermediates — each body's state is unpacked
to plain floats once, advanced, and written back.  The per-entity
state (13 floats) is too small for NumPy dispatch to pay off at
per-world populations, while the attribute/method overhead this
removes is most of the phase cost.

CCD candidates (per-sub-step motion beyond the sweep threshold) go
through the scalar ``collision.ccd.sweep_clamp``, as on the scalar
backend: no benchmark workload has a body moving that fast.
"""

from __future__ import annotations

import math

from ..collision import ccd as ccd_mod
from ..math3d import Mat3, Quaternion, Vec3


def apply_forces(world, dt: float):
    """Drop-in for ``World._apply_forces`` (bit-identical)."""
    live = [b for b in world.bodies if not (b.is_static or not b.enabled)]
    cfg = world.config
    g = cfg.gravity
    gx, gy, gz = g.x, g.y, g.z
    lin_k = max(0.0, 1.0 - cfg.linear_damping * dt)
    ang_k = max(0.0, 1.0 - cfg.angular_damping * dt)
    for body in live:
        # A sleeping body's orientation hasn't changed since its world
        # inertia was last refreshed (integration skips it), so the
        # cached matrix already holds exactly the values a recompute
        # would produce — keep it and just drain the accumulators.
        if body.sleeping and body._inv_inertia_world is not None:
            body.force = Vec3()
            body.torque = Vec3()
            continue
        # refresh_world_inertia(), unboxed: R = q.to_mat3(), then
        # world inverse inertia (R * I) * R^T with Mat3.__mul__'s
        # left-associated element sums.
        q = body.orientation
        w, x, y, z = q.w, q.x, q.y, q.z
        xx, yy, zz = x * x, y * y, z * z
        xy, xz, yz = x * y, x * z, y * z
        wx, wy, wz = w * x, w * y, w * z
        r00 = 1 - 2 * (yy + zz)
        r01 = 2 * (xy - wz)
        r02 = 2 * (xz + wy)
        r10 = 2 * (xy + wz)
        r11 = 1 - 2 * (xx + zz)
        r12 = 2 * (yz - wx)
        r20 = 2 * (xz - wy)
        r21 = 2 * (yz + wx)
        r22 = 1 - 2 * (xx + yy)
        ib = body.inv_inertia_body.m
        (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = ib
        # A = R * I
        a00 = r00 * i00 + r01 * i10 + r02 * i20
        a01 = r00 * i01 + r01 * i11 + r02 * i21
        a02 = r00 * i02 + r01 * i12 + r02 * i22
        a10 = r10 * i00 + r11 * i10 + r12 * i20
        a11 = r10 * i01 + r11 * i11 + r12 * i21
        a12 = r10 * i02 + r11 * i12 + r12 * i22
        a20 = r20 * i00 + r21 * i10 + r22 * i20
        a21 = r20 * i01 + r21 * i11 + r22 * i21
        a22 = r20 * i02 + r21 * i12 + r22 * i22
        # I_world = A * R^T  (b[j][k] of R^T is R[k][j])
        m00 = a00 * r00 + a01 * r01 + a02 * r02
        m01 = a00 * r10 + a01 * r11 + a02 * r12
        m02 = a00 * r20 + a01 * r21 + a02 * r22
        m10 = a10 * r00 + a11 * r01 + a12 * r02
        m11 = a10 * r10 + a11 * r11 + a12 * r12
        m12 = a10 * r20 + a11 * r21 + a12 * r22
        m20 = a20 * r00 + a21 * r01 + a22 * r02
        m21 = a20 * r10 + a21 * r11 + a22 * r12
        m22 = a20 * r20 + a21 * r21 + a22 * r22
        iw = Mat3.__new__(Mat3)
        iw.m = [[m00, m01, m02], [m10, m11, m12], [m20, m21, m22]]
        body._inv_inertia_world = iw

        if body.sleeping:
            body.force = Vec3()
            body.torque = Vec3()
            continue

        v = body.linear_velocity
        f = body.force
        gs = body.gravity_scale
        im = body.inv_mass
        body.linear_velocity = Vec3(
            (v.x + (gx * gs + f.x * im) * dt) * lin_k,
            (v.y + (gy * gs + f.y * im) * dt) * lin_k,
            (v.z + (gz * gs + f.z * im) * dt) * lin_k,
        )
        av = body.angular_velocity
        t = body.torque
        body.angular_velocity = Vec3(
            (av.x + (m00 * t.x + m01 * t.y + m02 * t.z) * dt) * ang_k,
            (av.y + (m10 * t.x + m11 * t.y + m12 * t.z) * dt) * ang_k,
            (av.z + (m20 * t.x + m21 * t.y + m22 * t.z) * dt) * ang_k,
        )
        body.force = Vec3()
        body.torque = Vec3()


def integrate(world, bodies, dt: float):
    """Drop-in for ``World._integrate`` (bit-identical)."""
    bounds = world.config.world_bounds
    ccd_threshold = (ccd_mod.CCD_MOTION_THRESHOLD
                     if world.config.ccd else float("inf"))
    for body in bodies:
        if body.sleeping:
            continue
        v = body.linear_velocity
        mx, my, mz = v.x * dt, v.y * dt, v.z * dt
        if math.sqrt(mx * mx + my * my + mz * mz) > ccd_threshold:
            clamped = ccd_mod.sweep_clamp(world, body, Vec3(mx, my, mz))
            if clamped is not None:
                body.position = clamped
                body.orientation = body.orientation.integrated(
                    body.angular_velocity, dt)
                body._inv_inertia_world = None
                if world.report is not None:
                    world.report.count("narrowphase", ccd_clamps=1)
                continue
        p = body.position
        body.position = Vec3(p.x + mx, p.y + my, p.z + mz)
        # orientation.integrated(), unboxed: q' = normalize(q + dt/2 *
        # (0, omega) * q) with Quaternion.__mul__'s term order.
        av = body.angular_velocity
        ox, oy, oz = av.x, av.y, av.z
        q = body.orientation
        qw, qx, qy, qz = q.w, q.x, q.y, q.z
        dw = 0.0 * qw - ox * qx - oy * qy - oz * qz
        dx = 0.0 * qx + ox * qw + oy * qz - oz * qy
        dy = 0.0 * qy - ox * qz + oy * qw + oz * qx
        dz = 0.0 * qz + ox * qy - oy * qx + oz * qw
        half = 0.5 * dt
        nw = qw + dw * half
        nx = qx + dx * half
        ny = qy + dy * half
        nz = qz + dz * half
        n = math.sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
        out = Quaternion.__new__(Quaternion)
        if n < 1e-12:
            out.w, out.x, out.y, out.z = 1.0, 0.0, 0.0, 0.0
        else:
            inv = 1.0 / n
            out.w = nw * inv
            out.x = nx * inv
            out.y = ny * inv
            out.z = nz * inv
        body.orientation = out
        body._inv_inertia_world = None
        p = body.position
        if (abs(p.x) > bounds or abs(p.y) > bounds
                or abs(p.z) > bounds):
            body.enabled = False
            world.culled += 1
