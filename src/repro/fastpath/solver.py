"""Struct-of-arrays PGS kernels, bit-identical to the scalar solver.

The scalar :func:`repro.dynamics.solver.solve_island` is the
correctness oracle; these kernels restate exactly the same arithmetic
(same operations, same association order, same clamping) over packed
row data, so a ``backend="numpy"`` world replays the scalar trajectory
bit-for-bit.  Two execution strategies share one packing:

* ``flat``: the row recurrence unrolled over parallel Python float
  lists.  Sequential like the oracle, but without any ``Vec3``/``Mat3``
  allocation or method dispatch — the per-row cost drops several-fold.

* ``levels``: rows are scheduled into dependency levels (two rows
  conflict when they share a *dynamic* body or when one is the friction
  row of the other).  Any two rows in one level are independent, so the
  level solves as one vectorized NumPy update.  Because every row still
  reads exactly the velocities left by the last conflicting row, the
  result carries the same bit pattern as the sequential sweep.  Levels
  only pay off when they are wide — which is what
  :class:`~repro.fastpath.batch.BatchWorld` produces by packing many
  worlds' islands into one solve.

``solve_islands`` picks the strategy per packed batch from the mean
level width; since both are bit-identical to the oracle the heuristic
is a pure performance knob.
"""

from __future__ import annotations

import numpy as np

from ..dynamics.solver import SolveStats

# Mean rows-per-level at which the vectorized level sweep overtakes the
# flat Python recurrence (NumPy call overhead amortizes past ~this many
# lanes; tuned on the Table 3 workloads).
LEVEL_WIDTH_THRESHOLD = 24.0

_ZERO9 = (0.0,) * 9

# row_data column layout (see PackedRows.__init__):
#   0 row index | 1 slot a | 2 slot b
#   3..8   lin_a.xyz, ang_a.xyz
#   9..14  lin_b.xyz, ang_b.xyz
#   15 rhs | 16 cfm | 17 lo | 18 hi | 19 inv_k
#   20 friction_of row index (-1 none) | 21 friction_coeff
_COL_RHS, _COL_CFM, _COL_LO, _COL_HI, _COL_INVK = 15, 16, 17, 18, 19
_COL_FR, _COL_MU = 20, 21


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
        "levels", "n_levels",
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
        self.levels = None
        self.n_levels = 0

    # -- scheduling -----------------------------------------------------
    def build_levels(self):
        """Group rows into dependency levels (see module docstring)."""
        if self.levels is not None:
            return self.levels
        body_last = {}
        row_level = [0] * len(self.rows)
        levels = []
        dynamic = self.dynamic
        for rd in self.row_data:
            k, ia, ib = rd[0], rd[1], rd[2]
            lv = 0
            if ia >= 0 and dynamic[ia]:
                last = body_last.get(ia)
                if last is not None and last >= lv:
                    lv = last + 1
            if ib >= 0 and dynamic[ib]:
                last = body_last.get(ib)
                if last is not None and last >= lv:
                    lv = last + 1
            fr = rd[_COL_FR]
            if fr >= 0 and row_level[fr] >= lv:
                lv = row_level[fr] + 1
            row_level[k] = lv
            if ia >= 0 and dynamic[ia]:
                body_last[ia] = lv
            if ib >= 0 and dynamic[ib]:
                body_last[ib] = lv
            while len(levels) <= lv:
                levels.append([])
            levels[lv].append(k)
        self.levels = levels
        self.n_levels = len(levels)
        return levels

    def mean_level_width(self) -> float:
        self.build_levels()
        if not self.n_levels:
            return 0.0
        return len(self.rows) / self.n_levels

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
# flat path: sequential recurrence over unboxed floats


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
# level path: vectorized sweep over independent rows


class _LevelArrays:
    """NumPy mirrors of PackedRows, grouped by dependency level.

    Slot arrays get one trailing dummy slot for ``None`` endpoints; its
    velocity stays zero and its inverse mass/inertia are zero, and every
    read through it is additionally masked so a polluted (non-finite)
    Jacobian cannot leak NaNs where the scalar path would skip the term.
    """

    __slots__ = ("vx", "vy", "vz", "wx", "wy", "wz", "imp", "levels",
                 "n_rows", "island_of", "maxd", "resid")

    def __init__(self, packed):
        levels = packed.build_levels()
        n_slots = len(packed.bodies) + 1  # + dummy slot for None
        vel = np.zeros((n_slots, 6), dtype=np.float64)
        for s, v in enumerate(packed.vel):
            vel[s] = v
        self.vx = np.ascontiguousarray(vel[:, 0])
        self.vy = np.ascontiguousarray(vel[:, 1])
        self.vz = np.ascontiguousarray(vel[:, 2])
        self.wx = np.ascontiguousarray(vel[:, 3])
        self.wy = np.ascontiguousarray(vel[:, 4])
        self.wz = np.ascontiguousarray(vel[:, 5])
        self.imp = np.array(packed.impulses, dtype=np.float64)
        self.n_rows = len(packed.rows)
        self.island_of = np.array(packed.island_of, dtype=np.int64)
        self.maxd = np.zeros(self.n_rows, dtype=np.float64)
        self.resid = np.zeros(self.n_rows, dtype=np.float64)

        dummy = n_slots - 1
        # Apply-side mass/inertia: zeroed for static bodies (the scalar
        # apply_impulse skips them), actual values for dynamic ones.
        apply_inv_mass = np.array(
            [im if dyn else 0.0
             for im, dyn in zip(packed.inv_mass, packed.dynamic)] + [0.0])
        apply_inertia = np.array(
            [inert if dyn else _ZERO9
             for inert, dyn in zip(packed.inertia, packed.dynamic)]
            + [_ZERO9])
        dyn_mask = np.array(list(packed.dynamic) + [False])

        rd = packed.row_data
        self.levels = []
        for members in levels:
            a = np.array([rd[k] for k in members], dtype=np.float64)
            ia = a[:, 1].astype(np.int64)
            ib = a[:, 2].astype(np.int64)
            a_none = ia < 0
            b_none = ib < 0
            ia[a_none] = dummy
            ib[b_none] = dummy
            fr = a[:, _COL_FR].astype(np.int64)
            has_fr = fr >= 0
            self.levels.append({
                "k": np.array(members, dtype=np.int64),
                "ia": ia, "ib": ib,
                "a_none": a_none, "b_none": b_none,
                "a_dyn": dyn_mask[ia], "b_dyn": dyn_mask[ib],
                "jac": np.ascontiguousarray(a[:, 3:15].T),
                "rhs": a[:, _COL_RHS], "cfm": a[:, _COL_CFM],
                "lo": a[:, _COL_LO], "hi": a[:, _COL_HI],
                "inv_k": a[:, _COL_INVK],
                "fr_safe": np.where(has_fr, fr, 0), "has_fr": has_fr,
                "any_fr": bool(has_fr.any()),
                "mu": a[:, _COL_MU],
                "ima": apply_inv_mass[ia], "imb": apply_inv_mass[ib],
                "Ia": np.ascontiguousarray(apply_inertia[ia].T),
                "Ib": np.ascontiguousarray(apply_inertia[ib].T),
            })


def _masked(term, none_mask):
    """The scalar path contributes exactly 0.0 for a ``None`` body."""
    return np.where(none_mask, 0.0, term)


def _solve_levels(packed, iterations):
    arrs = _LevelArrays(packed)
    vx, vy, vz = arrs.vx, arrs.vy, arrs.vz
    wx, wy, wz = arrs.wx, arrs.wy, arrs.wz
    imp = arrs.imp
    maxd = arrs.maxd
    resid = arrs.resid
    last_iteration = iterations - 1

    with np.errstate(invalid="ignore", over="ignore"):
        for it in range(iterations):
            is_last = it == last_iteration
            for lv in arrs.levels:
                k = lv["k"]
                ia, ib = lv["ia"], lv["ib"]
                (lax, lay, laz, aax, aay, aaz,
                 lbx, lby, lbz, abx, aby, abz) = lv["jac"]
                lo, hi = lv["lo"], lv["hi"]
                if lv["any_fr"]:
                    f = imp[lv["fr_safe"]]
                    bound = lv["mu"] * np.maximum(0.0, f)
                    lo = np.where(lv["has_fr"], -bound, lo)
                    hi = np.where(lv["has_fr"], bound, hi)
                # Same association as relative_velocity(): four dot
                # products folded left, None terms exactly 0.0.
                d_la = _masked(
                    lax * vx[ia] + lay * vy[ia] + laz * vz[ia],
                    lv["a_none"])
                d_aa = _masked(
                    aax * wx[ia] + aay * wy[ia] + aaz * wz[ia],
                    lv["a_none"])
                d_lb = _masked(
                    lbx * vx[ib] + lby * vy[ib] + lbz * vz[ib],
                    lv["b_none"])
                d_ab = _masked(
                    abx * wx[ib] + aby * wy[ib] + abz * wz[ib],
                    lv["b_none"])
                vrel = d_la + d_aa + d_lb + d_ab
                old = imp[k]
                inv_k = lv["inv_k"]
                d = (lv["rhs"] - vrel - lv["cfm"] * old) * inv_k
                new = np.minimum(np.maximum(old + d, lo), hi)
                new = np.where(inv_k == 0.0, old, new)
                d = new - old
                imp[k] = new
                ad = np.abs(d)
                maxd[k] = np.maximum(maxd[k], ad)
                if is_last:
                    resid[k] = ad
                # Scatter the impulse into body velocities.  Dynamic
                # slots within one level are pairwise distinct (that is
                # the level invariant), so fancy-index += is safe; the
                # masked static/dummy lanes add exactly 0.0.
                sa = np.where(lv["a_dyn"], d * lv["ima"], 0.0)
                da = np.where(lv["a_dyn"], d, 0.0)
                vx[ia] += lax * sa
                vy[ia] += lay * sa
                vz[ia] += laz * sa
                tx, ty, tz = aax * da, aay * da, aaz * da
                m = lv["Ia"]
                wx[ia] += m[0] * tx + m[1] * ty + m[2] * tz
                wy[ia] += m[3] * tx + m[4] * ty + m[5] * tz
                wz[ia] += m[6] * tx + m[7] * ty + m[8] * tz
                sb = np.where(lv["b_dyn"], d * lv["imb"], 0.0)
                db = np.where(lv["b_dyn"], d, 0.0)
                vx[ib] += lbx * sb
                vy[ib] += lby * sb
                vz[ib] += lbz * sb
                tx, ty, tz = abx * db, aby * db, abz * db
                m = lv["Ib"]
                wx[ib] += m[0] * tx + m[1] * ty + m[2] * tz
                wy[ib] += m[3] * tx + m[4] * ty + m[5] * tz
                wz[ib] += m[6] * tx + m[7] * ty + m[8] * tz

    # Scatter solved state back into the packed lists so PackedRows
    # stays the single source of truth for writeback().
    packed.impulses = imp.tolist()
    for s in range(len(packed.bodies)):
        packed.vel[s] = [vx[s], vy[s], vz[s], wx[s], wy[s], wz[s]]

    n_isl = packed.n_islands
    max_delta = [0.0] * n_isl
    residual = [0.0] * n_isl
    if arrs.n_rows:
        md = np.zeros(n_isl)
        rs = np.zeros(n_isl)
        np.maximum.at(md, arrs.island_of, maxd)
        np.maximum.at(rs, arrs.island_of, resid)
        max_delta = md.tolist()
        residual = rs.tolist()
    return _stats(packed, iterations, max_delta, residual)


# ---------------------------------------------------------------------------
# public API


def solve_islands(islands_rows, iterations: int = 20,
                  strategy: str = "auto"):
    """Solve several independent islands' row lists in one packed pass.

    Returns one :class:`SolveStats` per input island, numerically
    identical to calling the scalar ``solve_island`` on each.  Strategy
    ``auto`` uses the vectorized level sweep when levels are wide and
    the flat recurrence otherwise; ``flat`` / ``levels`` force a path.
    """
    islands_rows = [list(r) for r in islands_rows]
    packed = PackedRows(islands_rows)
    if not packed.rows:
        return _stats(packed, iterations, [0.0] * packed.n_islands,
                      [0.0] * packed.n_islands)
    if strategy == "auto":
        wide = packed.mean_level_width() >= LEVEL_WIDTH_THRESHOLD
        strategy = "levels" if wide else "flat"
    if strategy == "levels":
        stats = _solve_levels(packed, iterations)
    elif strategy == "flat":
        stats = _solve_flat(packed, iterations)
    else:
        raise ValueError(f"unknown solver strategy {strategy!r}")
    packed.writeback()
    return stats


def solve_island_soa(rows, iterations: int = 20,
                     strategy: str = "auto") -> SolveStats:
    """Drop-in for the scalar ``solve_island`` over one row list."""
    return solve_islands([list(rows)], iterations, strategy)[0]
