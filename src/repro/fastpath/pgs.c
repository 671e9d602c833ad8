/* The numpy kernel set's C kernels, bit-identical to the scalar
 * oracle: packed constraint rows (the row builders and the projected
 * Gauss-Seidel sweep: repro.dynamics.joints' begin_step +
 * Row.warm_start, then repro.dynamics.solver.solve_island), Jakobsen
 * cloth relaxation (repro.cloth.Cloth._relax_once) and the box/box pair
 * test (repro.collision.narrowphase._box_box).
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
 * repro.fastpath.solver checks that claim before it uses the library,
 * on a canary scene built and swept, a small pinned cloth and three box
 * pairs, and runs the scalar oracle otherwise.
 */

#include <math.h>
#include <stdint.h>

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

/* Cloth._relax_once, `iterations` times, in place on the cloth's own
 * arrays: pos (n_vertices x 3), the links' endpoints ci and cj and rest
 * lengths (n_links each), inv_degree (n_vertices) and the pinned flags.
 * scratch holds 3 * n_vertices + n_links doubles.
 *
 * Each pass reads the positions it starts with (Jacobi): a link's
 * correction is d * s, where d = pos[cj] - pos[ci] and
 * s = ((len - rest) / len) * 0.5, with len's squares summed left to
 * right and floored at 1e-12 as np.maximum floors it (NaN passes
 * through).  np.add.at accumulates a vertex's corrections into 0.0,
 * first its ci ones in link order, then its negated cj ones (d * s
 * computed again from the same positions, so the same bits); a pinned
 * vertex's delta is zeroed, and every vertex, pinned or not, adds
 * delta * inv_degree. */
void cloth_relax(double *pos, const int64_t *ci, const int64_t *cj,
                 const double *rest, const double *inv_degree,
                 const unsigned char *pinned, int64_t n_links,
                 int64_t n_vertices, int iterations, double *scratch)
{
    double *delta = scratch, *scale = scratch + 3 * n_vertices;

    for (int it = 0; it < iterations; it++) {
        for (int64_t v = 0; v < 3 * n_vertices; v++)
            delta[v] = 0.0;
        for (int64_t k = 0; k < n_links; k++) {
            const double *p = pos + 3 * ci[k], *q = pos + 3 * cj[k];
            double *out = delta + 3 * ci[k];
            double d[3], len, s;

            for (int j = 0; j < 3; j++)
                d[j] = q[j] - p[j];
            len = sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
            if (len < 1e-12)
                len = 1e-12;
            s = scale[k] = (len - rest[k]) / len * 0.5;
            for (int j = 0; j < 3; j++)
                out[j] += d[j] * s;
        }
        for (int64_t k = 0; k < n_links; k++) {
            const double *p = pos + 3 * ci[k], *q = pos + 3 * cj[k];
            double *out = delta + 3 * cj[k];

            for (int j = 0; j < 3; j++)
                out[j] += -((q[j] - p[j]) * scale[k]);
        }
        for (int64_t v = 0; v < n_vertices; v++) {
            double w = inv_degree[v];

            for (int j = 0; j < 3; j++) {
                double dv = pinned[v] ? 0.0 : delta[3 * v + j];
                pos[3 * v + j] += dv * w;
            }
        }
    }
}

/* collision.narrowphase's CONTACT_MARGIN. */
#define CONTACT_MARGIN 0.002

/* Box/box pair layout: 20 doubles per pair, then per box result. */
enum {
    NPAIR = 20,
    BOX_POS = 0, BOX_QUAT = 3, BOX_HALF = 7,  /* box a; box b at +10 */
    NBOX = 10,
    MAX_BOX_CONTACTS = 16,
    NPOINT = 5                                /* x y z depth feature */
};

/* Quaternion.to_mat3's columns: the box's local axes in world space. */
static void box_axes(double axes[3][3], const double *q)
{
    double w = q[0], x = q[1], y = q[2], z = q[3];
    double xx = x * x, yy = y * y, zz = z * z;
    double xy = x * y, xz = x * z, yz = y * z;
    double wx = w * x, wy = w * y, wz = w * z;

    axes[0][0] = 1.0 - 2.0 * (yy + zz);
    axes[0][1] = 2.0 * (xy + wz);
    axes[0][2] = 2.0 * (xz - wy);
    axes[1][0] = 2.0 * (xy - wz);
    axes[1][1] = 1.0 - 2.0 * (xx + zz);
    axes[1][2] = 2.0 * (yz + wx);
    axes[2][0] = 2.0 * (xz + wy);
    axes[2][1] = 2.0 * (yz - wx);
    axes[2][2] = 1.0 - 2.0 * (xx + yy);
}

/* _box_extent_along. */
static double extent_along(double axes[3][3], const double *h,
                           const double *axis)
{
    return fabs(dot(axis, axes[0])) * h[0] + fabs(dot(axis, axes[1])) * h[1]
        + fabs(dot(axis, axes[2])) * h[2];
}

/* _point_in_box: p in the box's frame (Transform.apply_inverse) within
 * half extents plus CONTACT_MARGIN. */
static int point_in_box(const double *p, const double *box)
{
    const double *q = box + BOX_QUAT, *h = box + BOX_HALF;
    double qc[4] = {q[0], -q[1], -q[2], -q[3]};
    double rel[3], local[3];

    for (int j = 0; j < 3; j++)
        rel[j] = p[j] - box[BOX_POS + j];
    rotate(local, qc, rel);
    return fabs(local[0]) <= h[0] + CONTACT_MARGIN
        && fabs(local[1]) <= h[1] + CONTACT_MARGIN
        && fabs(local[2]) <= h[2] + CONTACT_MARGIN;
}

/* Box.corners()[i] through Transform.apply: sx outer, sz inner. */
static void box_corner(double *out, const double *box, int i)
{
    const double *h = box + BOX_HALF;
    double local[3] = {i & 4 ? h[0] : -h[0], i & 2 ? h[1] : -h[1],
                       i & 1 ? h[2] : -h[2]};

    rotate(out, box + BOX_QUAT, local);
    for (int j = 0; j < 3; j++)
        out[j] += box[BOX_POS + j];
}

static double *put_point(double *out, const double *p, double depth,
                         int feature)
{
    out[0] = p[0];
    out[1] = p[1];
    out[2] = p[2];
    out[3] = depth > 0.0 ? depth : 0.0;    /* max(0.0, depth) */
    out[4] = feature;
    return out + NPOINT;
}

/* collision.narrowphase._box_box for each of n pairs: the SAT over
 * box a's three axes, box b's three, then each cross product whose
 * squared length exceeds 1e-12, normalized; the first axis that
 * separates by more than CONTACT_MARGIN ends the pair, and otherwise
 * the least overlap (the first on a tie) picks the normal, oriented
 * from b toward a.  Contacts are a's corners inside b (features 0-7),
 * b's corners inside a (8-15), or else a's support point toward b
 * (feature 16).
 *
 * Pair i writes count[i] (0 when separated, -1 when no axis was picked,
 * which only a NaN or infinite pose allows), its normal at
 * normal[3 * i] and its points at points[NPOINT * MAX_BOX_CONTACTS * i]. */
void box_box(const double *pairs, int n, int *count, double *normal,
             double *points)
{
    for (int i = 0; i < n; i++) {
        const double *a = pairs + (long)NPAIR * i, *b = a + NBOX;
        const double *ha = a + BOX_HALF, *hb = b + BOX_HALF;
        double *out = points + (long)NPOINT * MAX_BOX_CONTACTS * i;
        double *start = out, *nrm = normal + 3 * i;
        double axes_a[3][3], axes_b[3][3], cand[15][3], delta[3];
        double best_overlap = INFINITY, a_face, b_face, p[3];
        int n_cand = 6, best = -1, flip = 0, separated = 0;

        box_axes(axes_a, a + BOX_QUAT);
        box_axes(axes_b, b + BOX_QUAT);
        for (int j = 0; j < 3; j++) {
            delta[j] = a[BOX_POS + j] - b[BOX_POS + j];
            for (int k = 0; k < 3; k++) {
                cand[j][k] = axes_a[j][k];
                cand[3 + j][k] = axes_b[j][k];
            }
        }
        for (int u = 0; u < 3; u++)
            for (int v = 0; v < 3; v++) {
                double c[3], len;

                cross(c, axes_a[u], axes_b[v]);
                if (!(dot(c, c) > 1e-12))
                    continue;
                len = 1.0 / sqrt(dot(c, c));    /* Vec3.normalized */
                for (int k = 0; k < 3; k++)
                    cand[n_cand][k] = c[k] * len;
                n_cand++;
            }
        for (int k = 0; k < n_cand; k++) {
            double span = extent_along(axes_a, ha, cand[k])
                + extent_along(axes_b, hb, cand[k]);
            double dist = dot(cand[k], delta);
            double overlap = span - fabs(dist);

            if (overlap < -CONTACT_MARGIN) {
                separated = 1;
                break;
            }
            if (overlap < best_overlap) {
                best_overlap = overlap;
                best = k;
                flip = !(dist >= 0);
            }
        }
        if (separated || best < 0) {
            count[i] = separated ? 0 : -1;
            continue;
        }
        if (flip)
            negate(nrm, cand[best]);
        else
            for (int k = 0; k < 3; k++)
                nrm[k] = cand[best][k];

        b_face = dot(nrm, b + BOX_POS) + extent_along(axes_b, hb, nrm);
        for (int c = 0; c < 8; c++) {
            box_corner(p, a, c);
            if (point_in_box(p, b))
                out = put_point(out, p, b_face - dot(nrm, p), c);
        }
        a_face = dot(nrm, a + BOX_POS) - extent_along(axes_a, ha, nrm);
        for (int c = 0; c < 8; c++) {
            box_corner(p, b, c);
            if (point_in_box(p, a))
                out = put_point(out, p, dot(nrm, p) - a_face, 8 + c);
        }
        if (out == start) {
            for (int k = 0; k < 3; k++)
                p[k] = a[BOX_POS + k];
            for (int j = 0; j < 3; j++) {
                double s = dot(axes_a[j], nrm);
                double h = s > 0 ? ha[j] : -ha[j];

                for (int k = 0; k < 3; k++)
                    p[k] = p[k] - axes_a[j][k] * h;
            }
            out = put_point(out, p, best_overlap, 16);
        }
        count[i] = (int)((out - start) / NPOINT);
    }
}
