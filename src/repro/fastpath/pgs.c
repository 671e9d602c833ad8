/* Packed constraint rows in C: the row builders and the projected
 * Gauss-Seidel sweep, bit-identical to the scalar oracle
 * (repro.dynamics.joints' begin_step + Row.warm_start, then
 * repro.dynamics.solver.solve_island).
 *
 * Every expression keeps the oracle's association order token for
 * token: sums associate left (a dot product is (x*x' + y*y') + z*z'),
 * the impulse delta is ((rhs - vrel) - cfm*old) * inv_k, the velocity
 * update scales by d * inv_mass first, like Row.apply_impulse, and
 * Python's min/max are written as the comparisons they make.  Built
 * with
 *
 *     cc -O2 -fno-fast-math -ffp-contract=off -fPIC -shared
 *
 * no multiply-add is fused and no sum is reassociated, so each
 * operation rounds once to a double, exactly as a Python float does.
 * repro.fastpath.solver checks that claim on a canary scene, built
 * and swept, before it uses the library, and runs the scalar oracle
 * otherwise.
 */

#include <math.h>

/* Body slot layout: 23 doubles per body. */
enum {
    NBODY = 23,
    VEL = 0,          /* linear xyz, angular xyz */
    INV_MASS = 6,     /* 0.0 for a static body (Body.is_static) */
    INERTIA = 7,      /* world inverse inertia, row-major; 0s if static */
    POS = 16,
    QUAT = 19         /* w x y z */
};

/* Row layout: 22 doubles per row. */
enum {
    NCOL = 22,
    SLOT_A = 1, SLOT_B = 2,    /* body slots, -1 for a None endpoint */
    LIN_A = 3, ANG_A = 6,      /* Jacobian of body a (xyz, xyz) */
    LIN_B = 9, ANG_B = 12,     /* Jacobian of body b */
    RHS = 15, CFM = 16, LO = 17, HI = 18, INV_K = 19,
    FRICTION_OF = 20,          /* row index of the normal row, -1 none */
    MU = 21
};

/* Contact table: 16 doubles per ContactJoint. */
enum {
    NCONTACT = 16,
    C_ROW = 0,                 /* its normal row; friction rows follow */
    C_A = 1, C_B = 2,          /* body slots, -1 for a None endpoint */
    C_NORMAL = 3, C_POINT = 6, C_DEPTH = 9,
    C_MU = 10, C_REST = 11,
    C_CACHED = 12,             /* impulses in its warm-start entry */
    C_WARM = 13                /* those impulses (normal, t1, t2) */
};

/* Joint table: 18 doubles per ball, hinge or fixed joint. */
enum {
    NJOINT = 18,
    J_ROW = 0, J_A = 1, J_B = 2, J_KIND = 3,
    J_ANCHOR_A = 4, J_ANCHOR_B = 7,    /* local anchors */
    J_AXIS_A = 10, J_AXIS_B = 13,      /* hinge: local axes */
    J_QREL = 10,                       /* fixed: q_rel (w x y z) */
    J_MOTOR_VEL = 16, J_MOTOR_FORCE = 17
};

/* Joint kinds, with 3, 5, 6 and 6 rows. */
enum { BALL = 0, HINGE = 1, MOTOR_HINGE = 2, FIXED = 3 };

static const double AXES[3][3] = {
    {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}
};
static const double ZERO[3] = {0.0, 0.0, 0.0};

/* Vec3.cross; out must not alias u or v. */
static void cross(double *out, const double *u, const double *v)
{
    out[0] = u[1] * v[2] - u[2] * v[1];
    out[1] = u[2] * v[0] - u[0] * v[2];
    out[2] = u[0] * v[1] - u[1] * v[0];
}

static double dot(const double *u, const double *v)
{
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2];
}

static void negate(double *out, const double *v)
{
    out[0] = -v[0];
    out[1] = -v[1];
    out[2] = -v[2];
}

/* Quaternion.rotate: v + (uv * w + uuv) * 2.0. */
static void rotate(double *out, const double *q, const double *v)
{
    double uv[3], uuv[3];

    cross(uv, q + 1, v);
    cross(uuv, q + 1, uv);
    for (int i = 0; i < 3; i++)
        out[i] = v[i] + (uv[i] * q[0] + uuv[i]) * 2.0;
}

/* Vec3.any_orthonormal: (v x base).normalized(). */
static void any_orthonormal(double *out, const double *v)
{
    double c[3], n;

    cross(c, v, fabs(v[0]) < 0.57735 ? AXES[0] : AXES[1]);
    n = sqrt(dot(c, c));
    if (n < 1e-12) {
        out[0] = out[1] = out[2] = 0.0;
        return;
    }
    n = 1.0 / n;
    for (int i = 0; i < 3; i++)
        out[i] = c[i] * n;
}

/* Quaternion.__mul__; out must not alias a or b. */
static void qmul(double *out, const double *a, const double *b)
{
    out[0] = a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3];
    out[1] = a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2];
    out[2] = a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1];
    out[3] = a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0];
}

/* Quaternion.normalized, in place. */
static void qnormalize(double *q)
{
    double n = sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]);

    if (n < 1e-12) {
        q[0] = 1.0;
        q[1] = q[2] = q[3] = 0.0;
        return;
    }
    n = 1.0 / n;
    for (int i = 0; i < 4; i++)
        q[i] *= n;
}

/* k += inv_mass * |lin|^2 + ang . (I_world * ang) for one endpoint,
 * the two additions of Row._effective_mass_inv. */
static double add_mass(double k, const double *j, const double *body)
{
    const double *m = body + INERTIA;
    double c0 = m[0] * j[3] + m[1] * j[4] + m[2] * j[5];
    double c1 = m[3] * j[3] + m[4] * j[4] + m[5] * j[5];
    double c2 = m[6] * j[3] + m[7] * j[4] + m[8] * j[5];

    k += body[INV_MASS] * dot(j, j);
    k += j[3] * c0 + j[4] * c1 + j[5] * c2;
    return k;
}

/* Row k: Row.__init__ with cfm 0.0 and its effective mass. */
static void put_row(double *rows, int k, int a, int b, const double *lin_a,
                    const double *ang_a, const double *lin_b,
                    const double *ang_b, double rhs, double lo, double hi,
                    int friction_of, double mu, const double *bodies)
{
    double *r = rows + (long)NCOL * k;
    double m;

    r[0] = k;
    r[SLOT_A] = a;
    r[SLOT_B] = b;
    for (int i = 0; i < 3; i++) {
        r[LIN_A + i] = lin_a[i];
        r[ANG_A + i] = ang_a[i];
        r[LIN_B + i] = lin_b[i];
        r[ANG_B + i] = ang_b[i];
    }
    r[RHS] = rhs;
    r[CFM] = 0.0;
    r[LO] = lo;
    r[HI] = hi;
    r[FRICTION_OF] = friction_of;
    r[MU] = mu;
    m = r[CFM];
    if (a >= 0 && bodies[(long)NBODY * a + INV_MASS] != 0.0)
        m = add_mass(m, r + LIN_A, bodies + (long)NBODY * a);
    if (b >= 0 && bodies[(long)NBODY * b + INV_MASS] != 0.0)
        m = add_mass(m, r + LIN_B, bodies + (long)NBODY * b);
    r[INV_K] = m < 1e-12 ? 0.0 : 1.0 / m;
}

/* A row along d through arms ra, rb: lin (d, -d), ang (ra x d,
 * -(rb x d)); contact normal, friction and joint anchor rows. */
static void put_arm_row(double *rows, int k, int a, int b, const double *d,
                        const double *ra, const double *rb, double rhs,
                        double lo, double hi, int friction_of, double mu,
                        const double *bodies)
{
    double lin_b[3], ang_a[3], rb_d[3], ang_b[3];

    negate(lin_b, d);
    cross(ang_a, ra, d);
    cross(rb_d, rb, d);
    negate(ang_b, rb_d);
    put_row(rows, k, a, b, d, ang_a, lin_b, ang_b, rhs, lo, hi,
            friction_of, mu, bodies);
}

/* An angular row about e: ang (e, -e), no linear part. */
static void put_angular_row(double *rows, int k, int a, int b,
                            const double *e, double rhs, double lo,
                            double hi, const double *bodies)
{
    double ang_b[3];

    negate(ang_b, e);
    put_row(rows, k, a, b, ZERO, e, ZERO, ang_b, rhs, lo, hi, -1, 0.0,
            bodies);
}

/* v += (lin * (d * inv_mass), I_world * (ang * d)): Row.apply_impulse
 * for one endpoint of a row; body is its slot. */
static void apply(double *body, const double *j, double d)
{
    const double *m = body + INERTIA;
    double s = d * body[INV_MASS];
    double tx = j[3] * d, ty = j[4] * d, tz = j[5] * d;

    body[VEL + 0] += j[0] * s;
    body[VEL + 1] += j[1] * s;
    body[VEL + 2] += j[2] * s;
    body[VEL + 3] += m[0] * tx + m[1] * ty + m[2] * tz;
    body[VEL + 4] += m[3] * tx + m[4] * ty + m[5] * tz;
    body[VEL + 5] += m[6] * tx + m[7] * ty + m[8] * tz;
}

/* Row.apply_impulse: both endpoints, statics and None skipped. */
static void apply_row(const double *r, double d, double *bodies)
{
    int a = (int)r[SLOT_A];
    int b = (int)r[SLOT_B];

    if (a >= 0 && bodies[(long)NBODY * a + INV_MASS] != 0.0)
        apply(bodies + (long)NBODY * a, r + LIN_A, d);
    if (b >= 0 && bodies[(long)NBODY * b + INV_MASS] != 0.0)
        apply(bodies + (long)NBODY * b, r + LIN_B, d);
}

/* Row.warm_start. */
static void warm_start(const double *rows, int k, double imp,
                       double *impulse, double *bodies)
{
    impulse[k] = imp;
    if (imp != 0.0)
        apply_row(rows + (long)NCOL * k, imp, bodies);
}

/* ContactJoint._normal_velocity: n . (va + wa x ra - vb - wb x rb). */
static double normal_velocity(const double *n, const double *ra,
                              const double *rb, int a, int b,
                              const double *bodies)
{
    double v[3] = {0.0, 0.0, 0.0}, w_r[3];

    if (a >= 0) {
        const double *s = bodies + (long)NBODY * a + VEL;
        cross(w_r, s + 3, ra);
        for (int i = 0; i < 3; i++)
            v[i] = (v[i] + s[i]) + w_r[i];
    }
    if (b >= 0) {
        const double *s = bodies + (long)NBODY * b + VEL;
        cross(w_r, s + 3, rb);
        for (int i = 0; i < 3; i++)
            v[i] = (v[i] - s[i]) - w_r[i];
    }
    return dot(n, v);
}

/* ContactJoint.begin_step, then the warm start from its cache entry,
 * for each of n contacts in order: a contact's restitution reads the
 * velocities every earlier contact's warm start has left.  beta is
 * erp / dt; slop, max_bias and threshold are ContactJoint's
 * PENETRATION_SLOP, MAX_BIAS_VELOCITY and RESTITUTION_THRESHOLD. */
void pgs_contacts(const double *contacts, int n, double beta, double slop,
                  double max_bias, double threshold, double *bodies,
                  double *rows, double *impulse)
{
    for (int i = 0; i < n; i++) {
        const double *c = contacts + (long)NCONTACT * i;
        const double *nrm = c + C_NORMAL;
        int k = (int)c[C_ROW];
        int a = (int)c[C_A];
        int b = (int)c[C_B];
        int cached = (int)c[C_CACHED];
        double ra[3] = {0.0, 0.0, 0.0}, rb[3] = {0.0, 0.0, 0.0};
        double depth = c[C_DEPTH] - slop;
        double bias, rhs, rest = c[C_REST], mu = c[C_MU];

        for (int j = 0; j < 3; j++) {
            if (a >= 0)
                ra[j] = c[C_POINT + j] - bodies[(long)NBODY * a + POS + j];
            if (b >= 0)
                rb[j] = c[C_POINT + j] - bodies[(long)NBODY * b + POS + j];
        }
        /* min(erp / dt * max(0.0, depth - slop), max_bias) */
        bias = beta * (depth > 0.0 ? depth : 0.0);
        rhs = max_bias < bias ? max_bias : bias;
        if (rest > 0.0) {
            double vn = normal_velocity(nrm, ra, rb, a, b, bodies);
            if (vn < -threshold) {
                double bounce = -rest * vn;
                if (bounce > rhs)
                    rhs = bounce;
            }
        }
        put_arm_row(rows, k, a, b, nrm, ra, rb, rhs, 0.0, INFINITY, -1,
                    0.0, bodies);
        impulse[k] = 0.0;
        if (mu > 0.0) {
            double t[2][3];
            any_orthonormal(t[0], nrm);
            cross(t[1], nrm, t[0]);
            for (int f = 0; f < 2; f++) {
                put_arm_row(rows, k + 1 + f, a, b, t[f], ra, rb, 0.0,
                            -INFINITY, INFINITY, k, mu, bodies);
                impulse[k + 1 + f] = 0.0;
            }
        }
        /* zip(rows, cached): normal row, then the friction rows */
        for (int r = 0; r < (mu > 0.0 ? 3 : 1) && r < cached; r++)
            warm_start(rows, k + r, c[C_WARM + r], impulse, bodies);
    }
}

/* begin_step for each of n ball, hinge and fixed joints: three anchor
 * rows, then a hinge's two axis rows and motor row or a fixed joint's
 * three orientation rows.  Joint rows read only poses, never
 * velocities, and start with impulse 0.0. */
void pgs_joints(const double *joints, int n, double beta, double dt,
                const double *bodies, double *rows, double *impulse)
{
    for (int i = 0; i < n; i++) {
        const double *j = joints + (long)NJOINT * i;
        int k0 = (int)j[J_ROW], k = k0;
        int a = (int)j[J_A], b = (int)j[J_B], kind = (int)j[J_KIND];
        const double *sa = bodies + (long)NBODY * a;
        const double *sb = bodies + (long)NBODY * b;
        double ra[3], rb[3], err[3];

        /* Joint._anchor_rows */
        rotate(ra, sa + QUAT, j + J_ANCHOR_A);
        rotate(rb, sb + QUAT, j + J_ANCHOR_B);
        for (int x = 0; x < 3; x++)
            err[x] = (sa[POS + x] + ra[x]) - (sb[POS + x] + rb[x]);
        for (int x = 0; x < 3; x++)
            put_arm_row(rows, k++, a, b, AXES[x], ra, rb,
                        -beta * dot(err, AXES[x]), -INFINITY, INFINITY,
                        -1, 0.0, bodies);

        if (kind == HINGE || kind == MOTOR_HINGE) {
            double axis_a[3], axis_b[3], perp[2][3];
            rotate(axis_a, sa + QUAT, j + J_AXIS_A);
            rotate(axis_b, sb + QUAT, j + J_AXIS_B);
            cross(err, axis_a, axis_b);
            any_orthonormal(perp[0], axis_a);
            cross(perp[1], axis_a, perp[0]);
            for (int p = 0; p < 2; p++)
                put_angular_row(rows, k++, a, b, perp[p],
                                beta * dot(err, perp[p]), -INFINITY,
                                INFINITY, bodies);
            if (kind == MOTOR_HINGE) {
                double cap = j[J_MOTOR_FORCE] * dt;
                put_angular_row(rows, k++, a, b, axis_a, -j[J_MOTOR_VEL],
                                -cap, cap, bodies);
            }
        } else if (kind == FIXED) {
            double target[4], conj[4], q_err[4];
            qmul(target, sb + QUAT, j + J_QREL);
            qnormalize(target);
            conj[0] = target[0];
            conj[1] = -target[1];
            conj[2] = -target[2];
            conj[3] = -target[3];
            qmul(q_err, sa + QUAT, conj);
            qnormalize(q_err);
            if (q_err[0] < 0.0)
                for (int x = 0; x < 4; x++)
                    q_err[x] = -q_err[x];
            for (int x = 0; x < 3; x++)
                err[x] = 2.0 * q_err[1 + x];
            for (int x = 0; x < 3; x++)
                put_angular_row(rows, k++, a, b, AXES[x],
                                -beta * dot(err, AXES[x]), -INFINITY,
                                INFINITY, bodies);
        }
        for (; k0 < k; k0++)
            impulse[k0] = 0.0;
    }
}

/* Jacobian half . slot velocity, added to vrel as the scalar
 * relative_velocity does: one left-associated dot per 3-vector. */
static double add_dot(double vrel, const double *j, const double *v)
{
    vrel += j[0] * v[0] + j[1] * v[1] + j[2] * v[2];
    vrel += j[3] * v[3] + j[4] * v[4] + j[5] * v[5];
    return vrel;
}

/* Sweep `iterations` times over the rows of every island.
 *
 * Island i owns rows start[i] .. start[i+1]-1; islands share no body
 * and no row.  bodies holds the body slots; a static body's velocity
 * is read but never written.  impulse holds one accumulated impulse
 * per row, updated in place.  max_delta and residual (zeroed by the
 * caller) receive each island's largest |delta| over all sweeps and
 * over the final sweep.  active is scratch space for n_islands ints.
 *
 * Rows with inv_k == 0.0 never change any state (the scalar solve_once
 * returns 0.0 at once), so they are skipped.  An island whose sweep
 * produced only exact-0.0 deltas is settled: every further sweep over
 * it would leave impulses and velocities unchanged and yield 0.0
 * deltas again, so its max_delta and residual are already final and it
 * retires from the sweep. */
void pgs_solve(const double *rows, const int *start, int n_islands,
               double *bodies, double *impulse, int iterations,
               double *max_delta, double *residual, int *active)
{
    int n_active = 0;
    for (int isl = 0; isl < n_islands; isl++)
        if (start[isl] < start[isl + 1])
            active[n_active++] = isl;

    for (int it = 0; it < iterations && n_active > 0; it++) {
        int is_last = it == iterations - 1;
        int still = 0;
        for (int q = 0; q < n_active; q++) {
            int isl = active[q];
            int changed = 0;
            double md = max_delta[isl];
            double res = residual[isl];
            for (int k = start[isl]; k < start[isl + 1]; k++) {
                const double *r = rows + (long)NCOL * k;
                int a = (int)r[SLOT_A];
                int b = (int)r[SLOT_B];
                int fr = (int)r[FRICTION_OF];
                double lo = r[LO], hi = r[HI];
                double vrel = 0.0, old, d, nw, ad;

                if (r[INV_K] == 0.0)
                    continue;
                if (fr >= 0) {
                    double f = impulse[fr];
                    double bound = r[MU] * (f > 0.0 ? f : 0.0);
                    lo = -bound;
                    hi = bound;
                }
                if (a >= 0)
                    vrel = add_dot(vrel, r + LIN_A,
                                   bodies + (long)NBODY * a + VEL);
                if (b >= 0)
                    vrel = add_dot(vrel, r + LIN_B,
                                   bodies + (long)NBODY * b + VEL);
                old = impulse[k];
                d = ((r[RHS] - vrel) - r[CFM] * old) * r[INV_K];
                nw = old + d;
                if (nw < lo)
                    nw = lo;
                else if (nw > hi)
                    nw = hi;
                d = nw - old;
                impulse[k] = nw;
                ad = d < 0.0 ? -d : d;
                if (ad > md)
                    md = ad;
                if (is_last && ad > res)
                    res = ad;
                if (d == 0.0)
                    continue;
                changed = 1;
                apply_row(r, d, bodies);
            }
            max_delta[isl] = md;
            if (is_last)
                residual[isl] = res;
            if (changed)
                active[still++] = isl;
        }
        n_active = still;
    }
}
