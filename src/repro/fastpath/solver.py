"""Packed PGS kernel, bit-identical to the scalar solver.

The scalar :func:`repro.dynamics.solver.solve_island` is the
correctness oracle; this kernel restates exactly the same arithmetic
(same operations, same association order, same clamping) over packed
row data, so a world on the fastpath kernel set replays the scalar
trajectory bit-for-bit.  The row recurrence is unrolled over parallel
Python float lists: sequential like the oracle, but without any
``Vec3``/``Mat3`` allocation or method dispatch — the per-row cost
drops several-fold.

The sweep stays sequential even for packed fleets.  Solving each
dependency level (rows that share no dynamic body) as one array update
ties or loses against this recurrence on every benchmark workload:
levels a few dozen rows wide do not amortise per-call array dispatch
(EXPERIMENTS.md, "Fastpath kernel audit").
"""

from __future__ import annotations

from ..dynamics.solver import SolveStats

_ZERO9 = (0.0,) * 9

# row_data column layout (see PackedRows.__init__):
#   0 row index | 1 slot a | 2 slot b
#   3..8   lin_a.xyz, ang_a.xyz
#   9..14  lin_b.xyz, ang_b.xyz
#   15 rhs | 16 cfm | 17 lo | 18 hi | 19 inv_k
#   20 friction_of row index (-1 none) | 21 friction_coeff


class PackedRows:
    """SoA view of solver rows from one or more islands.

    Body state (velocities, inverse mass, world-frame inverse inertia)
    is gathered into slot arrays; each row stores its body slots, its
    12 Jacobian components, bounds, and friction linkage.  ``None``
    endpoints map to slot -1; static bodies get read-only slots (their
    velocities participate in relative-velocity sums exactly like the
    scalar path, but impulses are never applied to them and they are
    never written back).
    """

    __slots__ = (
        "rows", "island_of", "n_islands", "row_data", "impulses",
        "vel", "bodies", "dynamic", "inv_mass", "inertia",
    )

    def __init__(self, islands_rows):
        rows = []
        island_of = []
        for isl, rlist in enumerate(islands_rows):
            for r in rlist:
                rows.append(r)
                island_of.append(isl)
        self.rows = rows
        self.island_of = island_of
        self.n_islands = len(islands_rows)

        slot_of = {}
        bodies = []
        vel = []          # [vx, vy, vz, wx, wy, wz] per slot
        inv_mass = []
        inertia = []      # 9-tuple per slot (world inverse inertia)
        dynamic = []

        def slot(body):
            if body is None:
                return -1
            # Keyed by identity, NOT body.uid: uid scopes are
            # per-session, so a multi-world pack (BatchWorld) can hold
            # distinct bodies with equal uids.
            s = slot_of.get(body)
            if s is None:
                s = slot_of[body] = len(bodies)
                bodies.append(body)
                v, w = body.linear_velocity, body.angular_velocity
                vel.append([v.x, v.y, v.z, w.x, w.y, w.z])
                if body.is_static:
                    inv_mass.append(0.0)
                    inertia.append(_ZERO9)
                    dynamic.append(False)
                else:
                    inv_mass.append(body.inv_mass)
                    m = body.inv_inertia_world.m
                    inertia.append((m[0][0], m[0][1], m[0][2],
                                    m[1][0], m[1][1], m[1][2],
                                    m[2][0], m[2][1], m[2][2]))
                    dynamic.append(True)
            return s

        row_index = {}
        data = []
        impulses = []
        for k, r in enumerate(rows):
            row_index[r] = k
            ia = slot(r.body_a)
            ib = slot(r.body_b)
            fr = (-1 if r.friction_of is None
                  else row_index[r.friction_of])
            la, aa, lb, ab = r.lin_a, r.ang_a, r.lin_b, r.ang_b
            data.append((
                k, ia, ib,
                la.x, la.y, la.z, aa.x, aa.y, aa.z,
                lb.x, lb.y, lb.z, ab.x, ab.y, ab.z,
                r.rhs, r.cfm, r.lo, r.hi, r.inv_k,
                fr, r.friction_coeff,
            ))
            impulses.append(r.impulse)
        self.row_data = data
        self.impulses = impulses
        self.vel = vel
        self.bodies = bodies
        self.dynamic = dynamic
        self.inv_mass = inv_mass
        self.inertia = inertia

    # -- scatter --------------------------------------------------------
    def writeback(self):
        """Write solved impulses and body velocities back to objects."""
        from ..math3d import Vec3
        for r, imp in zip(self.rows, self.impulses):
            r.impulse = imp
        for s, body in enumerate(self.bodies):
            if not self.dynamic[s]:
                continue
            v = self.vel[s]
            body.linear_velocity = Vec3(v[0], v[1], v[2])
            body.angular_velocity = Vec3(v[3], v[4], v[5])


def _stats(packed, iterations, max_delta, residual):
    """Per-island SolveStats from per-island extrema."""
    counts = [0] * packed.n_islands
    for isl in packed.island_of:
        counts[isl] += 1
    return [
        SolveStats(counts[i], iterations, iterations * counts[i],
                   max_delta[i], residual[i])
        for i in range(packed.n_islands)
    ]


# ---------------------------------------------------------------------------
# sequential recurrence over unboxed floats


def _solve_flat(packed, iterations):
    """Bit-identical restatement of Row.solve_once over parallel floats.

    Association order matters everywhere: every sum below mirrors the
    scalar expression token for token (dot products associate left, the
    impulse delta is ``((rhs - vrel) - cfm*imp) * inv_k``, the velocity
    update scales by ``d * inv_mass`` first — exactly like
    ``Row.apply_impulse``).
    """
    vel = packed.vel
    inv_mass = packed.inv_mass
    inertia = packed.inertia
    dynamic = packed.dynamic
    imp = packed.impulses
    island_of = packed.island_of
    n_isl = packed.n_islands
    max_delta = [0.0] * n_isl
    residual = [0.0] * n_isl
    last_iteration = iterations - 1

    # Re-bundle each live row for the sweep: direct references to the
    # endpoint velocity lists (None when absent), inverse mass/inertia
    # only where the impulse actually applies.  Rows with inv_k == 0
    # never change any state (the scalar solve_once returns 0.0
    # immediately), so they drop out entirely.  Rows stay grouped by
    # island: islands are body- and row-disjoint, so each can retire
    # from the sweep independently.
    groups = [[] for _ in range(n_isl)]
    for rd in packed.row_data:
        (k, ia, ib,
         lax, lay, laz, aax, aay, aaz,
         lbx, lby, lbz, abx, aby, abz,
         rhs, cfm, lo, hi, inv_k, fr, mu) = rd
        if inv_k == 0.0:
            continue
        da = ia >= 0 and dynamic[ia]
        db = ib >= 0 and dynamic[ib]
        groups[island_of[k]].append((
            k,
            vel[ia] if ia >= 0 else None,
            vel[ib] if ib >= 0 else None,
            inv_mass[ia] if da else None,
            inertia[ia] if da else None,
            inv_mass[ib] if db else None,
            inertia[ib] if db else None,
            lax, lay, laz, aax, aay, aaz,
            lbx, lby, lbz, abx, aby, abz,
            rhs, cfm, lo, hi, inv_k, fr, mu,
        ))
    active = [(isl, rows) for isl, rows in enumerate(groups) if rows]

    for it in range(iterations):
        is_last = it == last_iteration
        still = []
        for isl, rows in active:
            changed = False
            md = max_delta[isl]
            res = residual[isl]
            for (k, va, vb, ima, ma, imb, mb,
                 lax, lay, laz, aax, aay, aaz,
                 lbx, lby, lbz, abx, aby, abz,
                 rhs, cfm, lo, hi, inv_k, fr, mu) in rows:
                if fr >= 0:
                    f = imp[fr]
                    bound = mu * (f if f > 0.0 else 0.0)
                    lo = -bound
                    hi = bound
                vrel = 0.0
                if va is not None:
                    vrel += lax * va[0] + lay * va[1] + laz * va[2]
                    vrel += aax * va[3] + aay * va[4] + aaz * va[5]
                if vb is not None:
                    vrel += lbx * vb[0] + lby * vb[1] + lbz * vb[2]
                    vrel += abx * vb[3] + aby * vb[4] + abz * vb[5]
                old = imp[k]
                d = (rhs - vrel - cfm * old) * inv_k
                new = old + d
                if new < lo:
                    new = lo
                elif new > hi:
                    new = hi
                d = new - old
                imp[k] = new
                ad = -d if d < 0.0 else d
                if ad > md:
                    md = ad
                if is_last and ad > res:
                    res = ad
                if d == 0.0:
                    continue
                changed = True
                if ima is not None:
                    s = d * ima
                    va[0] += lax * s
                    va[1] += lay * s
                    va[2] += laz * s
                    tx = aax * d
                    ty = aay * d
                    tz = aaz * d
                    va[3] += ma[0] * tx + ma[1] * ty + ma[2] * tz
                    va[4] += ma[3] * tx + ma[4] * ty + ma[5] * tz
                    va[5] += ma[6] * tx + ma[7] * ty + ma[8] * tz
                if imb is not None:
                    s = d * imb
                    vb[0] += lbx * s
                    vb[1] += lby * s
                    vb[2] += lbz * s
                    tx = abx * d
                    ty = aby * d
                    tz = abz * d
                    vb[3] += mb[0] * tx + mb[1] * ty + mb[2] * tz
                    vb[4] += mb[3] * tx + mb[4] * ty + mb[5] * tz
                    vb[5] += mb[6] * tx + mb[7] * ty + mb[8] * tz
            max_delta[isl] = md
            if is_last:
                residual[isl] = res
            if changed:
                still.append((isl, rows))
            # An island whose sweep produced only exact-0.0 deltas is
            # settled: every remaining sweep over it would be a
            # value-level no-op (impulses and velocities unchanged, all
            # deltas 0.0 again), so its max_delta and final-iteration
            # residual (zero) are already what the full run produces.
            # It drops out; the rest keep iterating.
        active = still
        if not active:
            break
    return _stats(packed, iterations, max_delta, residual)


# ---------------------------------------------------------------------------
# public API


def solve_islands(islands_rows, iterations: int = 20):
    """Solve several independent islands' row lists in one packed pass.

    Returns one :class:`SolveStats` per input island, numerically
    identical to calling the scalar ``solve_island`` on each.
    """
    islands_rows = [list(r) for r in islands_rows]
    packed = PackedRows(islands_rows)
    if not packed.rows:
        return _stats(packed, iterations, [0.0] * packed.n_islands,
                      [0.0] * packed.n_islands)
    stats = _solve_flat(packed, iterations)
    packed.writeback()
    return stats
