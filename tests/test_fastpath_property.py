"""Hypothesis property tests for the fastpath kernels.

Randomized agreement checks between the vectorized kernels and their
scalar oracles: SAP pair sets against brute force, batched pair tests
against ``collide``, the C sweep's impulses and stats against the
scalar solver, the numpy kernel set's row build against the scalar
builder, cloth relaxation against the reference ``Cloth``.  Marked ``property``
so the fast tier-1 run can exclude them (``-m "not property"``); CI
runs them in their own step.
"""

import itertools
import math
import random
from array import array

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cloth import Cloth
from repro.collision import (BruteForceBroadphase, Contact, Geom,
                             SweepAndPrune, collide)
from repro.dynamics import (BallJoint, Body, ContactJoint, FixedJoint,
                            HingeJoint, build_islands)
from repro.engine import World, WorldConfig
from repro.dynamics.solver import Row, solve_island
from repro.fastpath import cloth as fp_cloth
from repro.fastpath import solver
from repro.fastpath.broadphase import VectorSweepAndPrune
from repro.fastpath.narrowphase import _BATCH_FN, _test_batched
from repro.fastpath.solver import solve_islands
from repro.geometry import Box, Plane, Sphere
from repro.math3d import Mat3, Quaternion, Vec3

pytestmark = pytest.mark.property

RELAXED = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


# -- broadphase ---------------------------------------------------------

_coord = st.floats(-15.0, 15.0, allow_nan=False, allow_infinity=False)
_radius = st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False)
_geom_specs = st.lists(
    st.tuples(_coord, _coord, _coord, _radius, st.booleans()),
    min_size=0, max_size=40)


def _make_geoms(specs):
    geoms = []
    for i, (x, y, z, r, static) in enumerate(specs):
        body = Body(position=Vec3(x, y, z),
                    mass=0.0 if static else 1.0)
        g = Geom(Sphere(r), body=body)
        g.index = i
        geoms.append(g)
    return geoms


def _pair_list(pairs):
    return [(ga.index, gb.index) for ga, gb in pairs]


def _pair_set(pairs):
    return {tuple(sorted(pair)) for pair in pairs}


@RELAXED
@given(specs=_geom_specs, moves=st.lists(st.tuples(_coord, _coord,
                                                   _coord),
                                         min_size=0, max_size=40))
def test_sap_pairs_match_brute_force(specs, moves):
    """Vectorized SAP emits exactly the brute-force AABB overlap set
    (minus static-static), including on incremental re-sweeps, and it
    is the scalar SAP frame for frame: the same ordered pair list and
    the same ``tests``, ``swaps`` and ``last_order`` that feed the
    instruction model."""
    geoms = _make_geoms(specs)
    fast = VectorSweepAndPrune()
    scalar = SweepAndPrune()
    for frame in range(3):
        brute = _pair_set(_pair_list(BruteForceBroadphase().pairs(geoms)))
        got = _pair_list(fast.pairs(geoms))
        want = _pair_list(scalar.pairs(geoms))
        assert _pair_set(want) == brute
        assert got == want, frame
        assert (fast.tests, fast.swaps, fast.last_order) == (
            scalar.tests, scalar.swaps, scalar.last_order), frame
        # Later frames exercise the incremental near-sorted path.
        for g, (dx, dy, dz) in zip(geoms, moves):
            g.body.position += Vec3(dx * 0.1, dy * 0.1, dz * 0.1)


# -- narrowphase --------------------------------------------------------

# The batched kinds, plus sphere/box, which takes ``collide`` inside
# ``_test_batched``, so every group is mixed with unbatched pairs.
_PAIR_KINDS = tuple(_BATCH_FN) + (("sphere", "box"),)


def _random_geom(rng, kind):
    """A plane near y = 0, or a sphere/box posed around it, so a group
    mixes touching, deep and separated pairs."""
    if kind == "plane":
        normal = Vec3(rng.uniform(-0.4, 0.4), 1.0, rng.uniform(-0.4, 0.4))
        return Geom(Plane(normal, rng.uniform(-0.3, 0.3)))
    axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.1, 1))
    body = Body(position=Vec3(rng.uniform(-1.2, 1.2), rng.uniform(-0.6, 1.4),
                              rng.uniform(-1.2, 1.2)),
                orientation=Quaternion.from_axis_angle(
                    axis, rng.uniform(-math.pi, math.pi)))
    if kind == "sphere":
        shape = Sphere(rng.uniform(0.2, 1.0))
    else:
        shape = Box(Vec3(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                         rng.uniform(0.2, 0.8)))
    return Geom(shape, body=body)


def _contact_bits(contacts):
    return [(c.geom_a.uid, c.geom_b.uid, c.feature)
            + tuple(float.hex(x) for x in (
                c.position.x, c.position.y, c.position.z,
                c.normal.x, c.normal.y, c.normal.z, c.depth))
            for c in contacts]


@RELAXED
@given(seed=st.integers(0, 2**31 - 1),
       sizes=st.tuples(*[st.integers(1, 6)] * len(_PAIR_KINDS)))
def test_batched_pair_tests_match_collide(pgs_path, seed, sizes):
    """Every pair, batched kind or not, in groups of 1-6 and in either
    argument order, gets ``collide``'s contact list: same contacts in
    the same order, floats equal to the last bit, with box/box in C or
    on the fallback."""
    rng = random.Random(seed)
    pairs = []
    for (ka, kb), n in zip(_PAIR_KINDS, sizes):
        for _ in range(n):
            pair = (_random_geom(rng, ka), _random_geom(rng, kb))
            pairs.append(pair[::-1] if rng.random() < 0.5 else pair)
    rng.shuffle(pairs)
    want = [_contact_bits(collide(ga, gb)) for ga, gb in pairs]
    for path in ("native", "fallback"):
        with pgs_path(path):
            got = [_contact_bits(found) for found in _test_batched(pairs)]
        assert got == want, path


_angle = st.floats(-math.pi, math.pi, allow_nan=False)
_axis = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 2,
                  st.floats(0.1, 1.0, allow_nan=False))
_half = st.tuples(*[st.floats(0.1, 1.0, allow_nan=False)] * 3)
_offset = st.tuples(*[st.floats(-1.5, 1.5, allow_nan=False)] * 3)


def _box_geom(position, orientation, half):
    return Geom(Box(Vec3(*half)),
                body=Body(position=Vec3(*position), orientation=orientation))


@st.composite
def _box_pairs(draw):
    """Two posed boxes, drawn one of four ways: free poses; b turned a
    hair (near 1e-6 rad) off a, so the axis cross products straddle
    ``_box_box``'s 1e-12 cut; two cubes turned 45 degrees about
    crossed axes and stacked so their edges meet (feature 16); or two
    boxes far apart."""
    how = draw(st.sampled_from(("free", "near_parallel", "edge", "far")))
    qa = Quaternion.from_axis_angle(Vec3(*draw(_axis)), draw(_angle))
    half_a, half_b = draw(_half), draw(_half)
    pos_a, pos_b = draw(_offset), draw(_offset)
    if how == "free":
        qb = Quaternion.from_axis_angle(Vec3(*draw(_axis)), draw(_angle))
    elif how == "near_parallel":
        tilt = draw(st.floats(3e-7, 3e-6, allow_nan=False))
        qb = (Quaternion.from_axis_angle(Vec3(*draw(_axis)), tilt) * qa
              ).normalized()
    elif how == "edge":
        s = draw(st.floats(0.2, 0.8, allow_nan=False))
        half_a = half_b = (s, s, s)
        qa = Quaternion.from_axis_angle(Vec3(1.0, 0.0, 0.0), 0.785)
        qb = Quaternion.from_axis_angle(Vec3(0.0, 0.0, 1.0), 0.785)
        gap = draw(st.floats(-0.1, 0.05, allow_nan=False))
        jitter = draw(st.tuples(*[st.floats(-0.05, 0.05,
                                            allow_nan=False)] * 2))
        pos_b = (0.0, 0.0, 0.0)
        pos_a = (jitter[0], 2.0 * s * math.sqrt(2.0) + gap, jitter[1])
    else:
        qb = Quaternion.from_axis_angle(Vec3(*draw(_axis)), draw(_angle))
        pos_a = (pos_a[0] + 5.0, pos_a[1], pos_a[2])
    return _box_geom(pos_a, qa, half_a), _box_geom(pos_b, qb, half_b)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pairs=st.lists(_box_pairs(), min_size=1, max_size=6))
def test_native_box_box_matches_collide(pgs_path, pairs):
    """``pgs.c``'s ``box_box`` gives ``collide``'s box/box contacts in
    both argument orders: the same features in the same order, and
    positions, normals and depths equal as ``float.hex``."""
    pairs = pairs + [(gb, ga) for ga, gb in pairs]
    want = [_contact_bits(collide(ga, gb)) for ga, gb in pairs]
    with pgs_path("native"):
        got = [_contact_bits(found) for found in _test_batched(pairs)]
    assert got == want


# -- PGS solver ---------------------------------------------------------

def _build_island(seed, n_bodies, n_rows):
    """Random bodies + rows; same seed -> bit-identical island.

    Besides body-body contacts, joints and bounded rows it draws the
    branches a port of the sweep can get wrong: ground contacts (a
    ``None`` endpoint, slot -1 when packed), rows between two static
    bodies (``inv_k == 0.0`` among live rows) and bilateral rows with
    ``rhs`` exactly 0.0, whose deltas can come out as -0.0."""
    rng = random.Random(seed)
    bodies = []
    for _ in range(n_bodies):
        mass = 0.0 if rng.random() < 0.2 else rng.uniform(0.5, 5.0)
        b = Body(position=Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2),
                               rng.uniform(-2, 2)), mass=mass)
        b.linear_velocity = Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3),
                                 rng.uniform(-3, 3))
        b.angular_velocity = Vec3(rng.uniform(-2, 2),
                                  rng.uniform(-2, 2),
                                  rng.uniform(-2, 2))
        bodies.append(b)
    ground = [Body(mass=0.0), Body(mass=0.0)]

    def vec():
        return Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1),
                    rng.uniform(-1, 1))

    rows = []
    for _ in range(n_rows):
        ia, ib = rng.sample(range(n_bodies), 2)
        a = bodies[ia]
        b = None if rng.random() < 0.2 else bodies[ib]
        kind = rng.random()
        if kind < 0.4:
            # Contact normal + optional friction pair.
            normal = Row(a, b, vec(), vec(), vec(), vec(),
                         rhs=rng.uniform(-1, 1), lo=0.0,
                         hi=float("inf"), cfm=rng.uniform(0.0, 1e-6))
            rows.append(normal)
            if rng.random() < 0.7:
                rows.append(Row(a, b, vec(), vec(), vec(), vec(),
                                rhs=0.0, friction_of=normal,
                                friction_coeff=rng.uniform(0.1, 1.0)))
        elif kind < 0.6:
            # Bilateral (joint-style) row.
            rows.append(Row(a, b, vec(), vec(), vec(), vec(),
                            rhs=rng.uniform(-1, 1),
                            cfm=rng.uniform(0.0, 1e-6)))
        elif kind < 0.7:
            rows.append(Row(a, b, vec(), vec(), vec(), vec(), rhs=0.0))
        elif kind < 0.8:
            rows.append(Row(ground[0], ground[1], vec(), vec(), vec(),
                            vec(), rhs=rng.uniform(-1, 1)))
        else:
            lo = rng.uniform(-2, 0)
            rows.append(Row(a, b, vec(), vec(), vec(), vec(),
                            rhs=rng.uniform(-1, 1), lo=lo,
                            hi=lo + rng.uniform(0.0, 3.0)))
    return bodies, rows


def _bits(bodies, rows, s):
    """Everything one island's solve produces, floats as exact hex
    strings (so -0.0 and 0.0 differ)."""
    out = [(s.rows, s.iterations, s.row_updates, s.max_delta.hex(),
            s.residual.hex())]
    out += [r.impulse.hex() for r in rows]
    for b in bodies:
        v, w = b.linear_velocity, b.angular_velocity
        out += [x.hex() for x in (v.x, v.y, v.z, w.x, w.y, w.z)]
    return out


def _pack(islands):
    """A pack of ``islands`` (``(bodies, rows)`` pairs) for the C sweep:
    its row buffer filled straight from each row's fields, its body
    slots gathered as the row builders gather them."""
    pack = solver.PackedRows([], solver._native())
    rows = [row for _, island_rows in islands for row in island_rows]
    index = {id(row): k for k, row in enumerate(rows)}
    data = []
    for k, r in enumerate(rows):
        data += (k, pack.slot(r.body_a), pack.slot(r.body_b),
                 *r.lin_a, *r.ang_a, *r.lin_b, *r.ang_b,
                 r.rhs, r.cfm, r.lo, r.hi, r.inv_k,
                 index.get(id(r.friction_of), -1), r.friction_coeff)
    pack.rows = array("d", data)
    pack.impulses = array("d", [row.impulse for row in rows])
    pack.start = array("i", itertools.accumulate(
        (len(island_rows) for _, island_rows in islands), initial=0))
    return pack


def _solve_packed(islands, iterations):
    """``solve_islands`` over :func:`_pack`, the solved impulses copied
    back onto the rows."""
    pack = _pack(islands)
    stats = solve_islands(pack, iterations)
    rows = [row for _, island_rows in islands for row in island_rows]
    for row, impulse in zip(rows, pack.impulses):
        row.impulse = impulse
    return stats


@RELAXED
@given(seed=st.integers(0, 2**31 - 1), n_bodies=st.integers(2, 10),
       n_rows=st.integers(0, 30), iterations=st.integers(1, 12),
       n_islands=st.integers(1, 6))
def test_pgs_soa_matches_scalar(pgs_path, seed, n_bodies, n_rows,
                                iterations, n_islands):
    """One C sweep over ``n_islands`` body-disjoint islands, written
    straight into a pack's buffers, reproduces the scalar PGS sweep of
    each island on its own exactly: same impulses, same body
    velocities, same SolveStats — including islands that settle and
    retire while the rest of the pack sweeps.  (Without the C library
    the numpy kernel set runs that scalar sweep itself.)"""
    # Island i has n_rows // (i + 1) rows, so a pack mixes large and
    # small (early-settling) islands.
    sizes = [(seed + i, n_bodies, n_rows // (i + 1))
             for i in range(n_islands)]
    scalar = [_build_island(*size) for size in sizes]
    stats_s = [solve_island(rows, iterations) for _, rows in scalar]
    want = [_bits(bodies, rows, stats)
            for (bodies, rows), stats in zip(scalar, stats_s)]
    packed = [_build_island(*size) for size in sizes]
    with pgs_path("native"):
        stats_f = _solve_packed(packed, iterations)
    got = [_bits(bodies, rows, stats)
           for (bodies, rows), stats in zip(packed, stats_f)]
    assert got == want


@RELAXED
@given(seed=st.integers(0, 2**31 - 1), n_bodies=st.integers(2, 8),
       n_rows=st.integers(1, 20), iterations=st.integers(1, 10))
def test_pgs_impulses_respect_bounds(pgs_path, seed, n_bodies, n_rows,
                                     iterations):
    """Projected impulses stay inside [lo, hi]; friction magnitudes
    stay inside the cone set by their normal row's final impulse."""
    island = _build_island(seed, n_bodies, n_rows)
    with pgs_path("native"):
        _solve_packed([island], iterations)
    for row in island[1]:
        if row.inv_k == 0.0:
            # Degenerate row (e.g. static-static pair): solve_once
            # bails before projecting, so impulse stays 0 even when
            # 0 is outside [lo, hi].  The C sweep agrees.
            assert row.impulse == 0.0
            continue
        if row.friction_of is not None:
            bound = row.friction_coeff * row.friction_of.impulse
            assert abs(row.impulse) <= bound + 1e-9
        else:
            assert row.lo - 1e-12 <= row.impulse <= row.hi + 1e-12
        assert math.isfinite(row.impulse)


# -- row build ----------------------------------------------------------

def _row_scene(seed, n_bodies, n_contacts, n_joints):
    """Random islands for one row build; same seed -> same scene.

    Dynamic bodies with random poses, velocities and full world inertia,
    two static bodies, contacts against a body, a static body or a
    static geom (a ``None`` endpoint, on either side) with friction and
    restitution each zero or not, and ball, hinge (with and without a
    motor) and fixed joints.  Returns ``(bodies, islands, cache)``: the
    cache holds a warm start for about half the contacts, some with
    friction impulses, some normal-only."""
    rng = random.Random(seed)

    def vec(r):
        return Vec3(rng.uniform(-r, r), rng.uniform(-r, r),
                    rng.uniform(-r, r))

    def pose():
        return dict(position=vec(2.0), orientation=Quaternion.from_axis_angle(
            vec(1.0), rng.uniform(-math.pi, math.pi)))

    bodies = []
    for i in range(n_bodies + 2):
        body = Body(**pose())
        if i < n_bodies:
            mass = rng.uniform(0.5, 5.0)
            body.set_mass(mass, Mat3.diagonal(
                *(mass * rng.uniform(0.05, 0.5) for _ in range(3))))
        else:
            body.set_mass(0.0, Mat3.zero())
        body.linear_velocity = vec(4.0)
        body.angular_velocity = vec(3.0)
        body.index = i
        bodies.append(body)
    dynamic, static = bodies[:n_bodies], bodies[n_bodies:]
    # Constraints stay inside one of up to three body groups, so a
    # build can span several islands.
    groups = rng.randint(1, 3)

    def other(a):
        pick = rng.random()
        mates = [b for b in dynamic
                 if b is not a and b.index % groups == a.index % groups]
        if pick < 0.2:
            return None
        if pick < 0.35 or not mates:
            return rng.choice(static)
        return rng.choice(mates)

    contact_joints = []
    cache = {}
    for k in range(n_contacts):
        a = rng.choice(dynamic)
        ends = [a, other(a)]
        if rng.random() < 0.5:
            ends.reverse()
        geoms = []
        for body in ends:
            geom = Geom(Sphere(0.5), body=body)
            geom.index = len(geoms) + 2 * k
            geoms.append(geom)
        contact = Contact(geoms[0], geoms[1], vec(2.0), vec(1.0).normalized(),
                          rng.choice((0.0, 0.004, rng.uniform(0.0, 0.3))),
                          feature=k)
        cj = ContactJoint(
            contact, friction=rng.choice((0.0, rng.uniform(0.1, 1.0))),
            restitution=rng.choice((0.0, rng.uniform(0.1, 0.9))))
        contact_joints.append(cj)
        if rng.random() < 0.5:
            size = 1 if rng.random() < 0.3 else 3
            cache[cj.cache_key] = tuple(
                rng.choice((0.0, rng.uniform(-0.5, 1.0)))
                for _ in range(size))

    joints = []
    for _ in range(n_joints):
        a = rng.choice(dynamic)
        b = other(a) or rng.choice(static)
        kind = rng.random()
        if kind < 0.3:
            joint = BallJoint(a, b, vec(2.0))
        elif kind < 0.7:
            joint = HingeJoint(a, b, vec(2.0), vec(1.0))
            if rng.random() < 0.5:
                joint.set_motor(rng.uniform(-3.0, 3.0),
                                rng.choice((0.0, rng.uniform(1.0, 50.0))))
        else:
            joint = FixedJoint(a, b)
        joints.append(joint)
        # Drift the pose so anchor and orientation errors are non-zero.
        a.position = a.position + vec(0.05)
        a.orientation = a.orientation * Quaternion.from_axis_angle(
            vec(1.0), rng.uniform(-0.1, 0.1))
        a.refresh_world_inertia()
    islands, _merges = build_islands(bodies, contact_joints, joints)
    return bodies, islands, cache


def _row_build_bits(bodies, built):
    """Every column of every built row and every body velocity after
    the warm starts, floats as exact hex strings.  ``built`` is what a
    kernel set's ``build_rows`` returns: the oracle's ``Row`` lists, or
    the numpy kernel set's ``PackedRows``."""
    key = {id(b): i for i, b in enumerate(bodies)}
    velocities = {id(b): (b.linear_velocity.x, b.linear_velocity.y,
                          b.linear_velocity.z, b.angular_velocity.x,
                          b.angular_velocity.y, b.angular_velocity.z)
                  for b in bodies}
    out = []
    if isinstance(built, list):
        rows = [row for island_rows in built for row in island_rows]
        index = {id(r): k for k, r in enumerate(rows)}
        for r in rows:
            out.append((
                key.get(id(r.body_a), -1), key.get(id(r.body_b), -1),
                *(c.hex() for v in (r.lin_a, r.ang_a, r.lin_b, r.ang_b)
                  for c in (v.x, v.y, v.z)),
                *(x.hex() for x in (r.rhs, r.cfm, r.lo, r.hi, r.inv_k)),
                -1 if r.friction_of is None else index[id(r.friction_of)],
                r.friction_coeff.hex(), r.impulse.hex()))
        islands = [len(island_rows) for island_rows in built]
    else:
        cols = solver.ROW_COLS
        for k in range(len(built.impulses)):
            r = built.rows[cols * k:cols * (k + 1)]
            slots = [int(r[1]), int(r[2])]
            out.append((
                *(key[id(built.bodies[s])] if s >= 0 else -1
                  for s in slots),
                *(x.hex() for x in r[3:20]), int(r[20]), r[21].hex(),
                built.impulses[k].hex()))
        for s, body in enumerate(built.bodies):
            o = solver.BODY_COLS * s
            velocities[id(body)] = tuple(built.slots[o:o + 6])
        islands = [b - a for a, b in zip(built.start, built.start[1:])]
    return islands, out, [tuple(x.hex() for x in velocities[id(b)])
                          for b in bodies]


@RELAXED
@given(seed=st.integers(0, 2**31 - 1), n_bodies=st.integers(2, 8),
       n_contacts=st.integers(0, 12), n_joints=st.integers(0, 10),
       warm=st.booleans())
def test_row_build_matches_scalar(pgs_path, seed, n_bodies, n_contacts,
                                  n_joints, warm):
    """The numpy kernel set builds the oracle's rows: the same row
    count per island, every column and accumulated (warm-start) impulse
    to the last bit, and the same warm-started body velocities, on both
    solve paths."""
    def build(backend):
        world = World(WorldConfig(warm_starting=warm), backend=backend)
        bodies, islands, cache = _row_scene(seed, n_bodies, n_contacts,
                                            n_joints)
        world._impulse_cache = cache
        built = world.kernels.build_rows(world, islands, world.config.dt)
        return _row_build_bits(bodies, built)

    want = build("scalar")
    for path in ("native", "fallback"):
        with pgs_path(path):
            assert build("numpy") == want, path


# -- cloth --------------------------------------------------------------

def _noisy_cloth(nx, ny, spacing, seed, pin):
    cloth = Cloth(nx, ny, spacing, Vec3(0.0, 2.0, 0.0),
                  pin_top_row=pin)
    rng = random.Random(seed)
    noise = np.array([[rng.uniform(-0.3, 0.3) * spacing
                       for _ in range(3)]
                      for _ in range(nx * ny)])
    cloth.positions = cloth.positions + noise
    return cloth


@RELAXED
@given(nx=st.integers(2, 7), ny=st.integers(2, 7),
       spacing=st.floats(0.1, 0.5, allow_nan=False),
       seed=st.integers(0, 2**31 - 1), pin=st.booleans())
def test_cloth_relaxation_residual_non_increasing(nx, ny, spacing,
                                                  seed, pin):
    """A relaxation pass never worsens the worst constraint error."""
    cloth = _noisy_cloth(nx, ny, spacing, seed, pin)
    before = cloth.max_stretch()
    for _ in range(cloth.ITERATIONS):
        cloth._relax_once()
    assert cloth.max_stretch() <= before + 1e-12


@RELAXED
@given(nx=st.integers(2, 7), ny=st.integers(2, 7),
       spacing=st.floats(0.1, 0.5, allow_nan=False),
       seed=st.integers(0, 2**31 - 1), pin=st.booleans())
def test_fastpath_cloth_step_bit_identical(pgs_path, nx, ny, spacing,
                                           seed, pin):
    """fastpath.step_cloth reproduces Cloth.step to the last bit, with
    its relaxation in C or on the fallback, and with a sphere and a
    box collider overlapping the cloth, so both projections run on the
    relaxed positions."""
    width, height = (nx - 1) * spacing, (ny - 1) * spacing
    colliders = [
        Geom(Sphere(0.3 * width + 0.05),
             body=Body(position=Vec3(0.5 * width, 2.0 - 0.5 * height,
                                     0.05))),
        Geom(Box(Vec3(0.3 * width + 0.05, 0.2 * height + 0.05, 0.1)),
             body=Body(position=Vec3(0.4 * width, 2.0 - 0.7 * height,
                                     -0.02),
                       orientation=Quaternion.from_axis_angle(
                           Vec3(0.3, 0.2, 1.0), 0.4))),
    ]
    gravity = Vec3(0.0, -9.81, 0.0)
    for path in ("native", "fallback"):
        a = _noisy_cloth(nx, ny, spacing, seed, pin)
        b = _noisy_cloth(nx, ny, spacing, seed, pin)
        a.ground_height = b.ground_height = 1.0
        for _ in range(3):
            stats_a = a.step(1.0 / 240.0, gravity, colliders)
            with pgs_path(path):
                stats_b = fp_cloth.step_cloth(b, 1.0 / 240.0, gravity,
                                              colliders)
            assert stats_a == stats_b, path
            assert a.positions.tobytes() == b.positions.tobytes(), path
            assert (a.prev_positions.tobytes()
                    == b.prev_positions.tobytes()), path
