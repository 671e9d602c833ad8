/* Packed projected Gauss-Seidel sweep, bit-identical to the scalar
 * solver (repro.dynamics.solver.solve_island).
 *
 * Every expression keeps the scalar solver's association order token
 * for token: dot products associate left, the impulse delta is
 * ((rhs - vrel) - cfm*old) * inv_k, and the velocity update scales by
 * d * inv_mass first, like Row.apply_impulse.  Built with
 *
 *     cc -O2 -fno-fast-math -ffp-contract=off -fPIC -shared
 *
 * no multiply-add is fused and no sum is reassociated, so each
 * operation rounds once to a double, exactly as a Python float does.
 * repro.fastpath.solver checks that claim on a canary island before it
 * uses the kernel, and falls back to the scalar solver otherwise.
 */

/* Row layout: 22 doubles per row, PackedRows' columns. */
enum {
    NCOL = 22,
    SLOT_A = 1, SLOT_B = 2,    /* body slots, -1 for a None endpoint */
    LIN_A = 3, ANG_A = 6,      /* Jacobian of body a (xyz, xyz) */
    LIN_B = 9, ANG_B = 12,     /* Jacobian of body b */
    RHS = 15, CFM = 16, LO = 17, HI = 18, INV_K = 19,
    FRICTION_OF = 20,          /* row index of the normal row, -1 none */
    MU = 21
};

/* Jacobian half . slot velocity, added to vrel as the scalar
 * relative_velocity does: one left-associated dot per 3-vector. */
static double add_dot(double vrel, const double *j, const double *v)
{
    vrel += j[0] * v[0] + j[1] * v[1] + j[2] * v[2];
    vrel += j[3] * v[3] + j[4] * v[4] + j[5] * v[5];
    return vrel;
}

/* v += (lin * (d * inv_mass), I_world * (ang * d)): Row.apply_impulse
 * for one endpoint; m is the row-major world inverse inertia. */
static void apply(double *v, const double *j, double d, double inv_mass,
                  const double *m)
{
    double s = d * inv_mass;
    double tx = j[3] * d, ty = j[4] * d, tz = j[5] * d;

    v[0] += j[0] * s;
    v[1] += j[1] * s;
    v[2] += j[2] * s;
    v[3] += m[0] * tx + m[1] * ty + m[2] * tz;
    v[4] += m[3] * tx + m[4] * ty + m[5] * tz;
    v[5] += m[6] * tx + m[7] * ty + m[8] * tz;
}

/* Sweep `iterations` times over the rows of every island.
 *
 * Island i owns rows start[i] .. start[i+1]-1; islands share no body
 * and no row.  vel holds 6 doubles per body slot (linear, angular),
 * inv_mass 1, inertia 9; inv_mass is 0.0 for a static body (the scalar
 * Body.is_static test), whose velocity is read but never written.
 * impulse holds one accumulated impulse per row, updated in place.
 * max_delta and residual (zeroed by the caller) receive each island's
 * largest |delta| over all sweeps and over the final sweep.  active is
 * scratch space for n_islands ints.
 *
 * Rows with inv_k == 0.0 never change any state (the scalar solve_once
 * returns 0.0 at once), so they are skipped.  An island whose sweep
 * produced only exact-0.0 deltas is settled: every further sweep over
 * it would leave impulses and velocities unchanged and yield 0.0
 * deltas again, so its max_delta and residual are already final and it
 * retires from the sweep. */
void pgs_solve(const double *rows, const int *start, int n_islands,
               double *vel, const double *inv_mass, const double *inertia,
               double *impulse, int iterations, double *max_delta,
               double *residual, int *active)
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
                    vrel = add_dot(vrel, r + LIN_A, vel + 6 * a);
                if (b >= 0)
                    vrel = add_dot(vrel, r + LIN_B, vel + 6 * b);
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
                if (a >= 0 && inv_mass[a] != 0.0)
                    apply(vel + 6 * a, r + LIN_A, d, inv_mass[a],
                          inertia + 9 * a);
                if (b >= 0 && inv_mass[b] != 0.0)
                    apply(vel + 6 * b, r + LIN_B, d, inv_mass[b],
                          inertia + 9 * b);
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
