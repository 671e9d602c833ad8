"""Hypothesis property tests for the fastpath kernels.

Randomized agreement checks between the vectorized kernels and their
scalar oracles: SAP pair sets against brute force, batched pair tests
against ``collide``, PGS impulses and stats against the scalar solver,
cloth relaxation against the reference ``Cloth``.  Marked ``property``
so the fast tier-1 run can exclude them (``-m "not property"``); CI
runs them in their own step.
"""

import math
import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cloth import Cloth
from repro.collision import (BruteForceBroadphase, Geom, SweepAndPrune,
                             collide)
from repro.dynamics import Body
from repro.dynamics.solver import Row, solve_island
from repro.fastpath import cloth as fp_cloth
from repro.fastpath.broadphase import VectorSweepAndPrune
from repro.fastpath.narrowphase import _test_batched
from repro.fastpath.solver import solve_islands
from repro.geometry import Box, Plane, Sphere
from repro.math3d import Quaternion, Vec3

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


def _pair_set(pairs):
    return {tuple(sorted((ga.index, gb.index))) for ga, gb in pairs}


@RELAXED
@given(specs=_geom_specs, moves=st.lists(st.tuples(_coord, _coord,
                                                   _coord),
                                         min_size=0, max_size=40))
def test_sap_pairs_match_brute_force(specs, moves):
    """Vectorized SAP emits exactly the brute-force AABB overlap set
    (minus static-static), including on incremental re-sweeps."""
    geoms = _make_geoms(specs)
    fast = VectorSweepAndPrune()
    scalar = SweepAndPrune()
    for frame in range(2):
        brute = _pair_set(BruteForceBroadphase().pairs(geoms))
        assert _pair_set(fast.pairs(geoms)) == brute
        assert _pair_set(scalar.pairs(geoms)) == brute
        # Second frame exercises the incremental near-sorted path.
        for g, (dx, dy, dz) in zip(geoms, moves):
            g.body.position += Vec3(dx * 0.1, dy * 0.1, dz * 0.1)


# -- narrowphase --------------------------------------------------------

_BATCHED_KINDS = (("sphere", "plane"), ("box", "plane"), ("box", "box"))


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
       sizes=st.tuples(*[st.integers(1, 6)] * len(_BATCHED_KINDS)))
def test_batched_pair_tests_match_collide(seed, sizes):
    """Every pair of a batched kind, in groups of 1-6 and in either
    argument order, gets ``collide``'s contact list: same contacts in
    the same order, floats equal to the last bit."""
    rng = random.Random(seed)
    pairs = []
    for (ka, kb), n in zip(_BATCHED_KINDS, sizes):
        for _ in range(n):
            pair = (_random_geom(rng, ka), _random_geom(rng, kb))
            pairs.append(pair[::-1] if rng.random() < 0.5 else pair)
    rng.shuffle(pairs)
    got = [_contact_bits(found) for found in _test_batched(pairs)]
    want = [_contact_bits(collide(ga, gb)) for ga, gb in pairs]
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


@RELAXED
@given(seed=st.integers(0, 2**31 - 1), n_bodies=st.integers(2, 10),
       n_rows=st.integers(0, 30), iterations=st.integers(1, 12),
       n_islands=st.integers(1, 6))
def test_pgs_soa_matches_scalar(pgs_path, seed, n_bodies, n_rows,
                                iterations, n_islands):
    """One packed solve over ``n_islands`` body-disjoint islands
    reproduces the scalar PGS sweep of each island on its own exactly,
    on both solve paths: same impulses, same body velocities, same
    SolveStats — including islands that settle and retire while the
    rest of the pack sweeps."""
    # Island i has n_rows // (i + 1) rows, so a pack mixes large and
    # small (early-settling) islands.
    sizes = [(seed + i, n_bodies, n_rows // (i + 1))
             for i in range(n_islands)]
    scalar = [_build_island(*size) for size in sizes]
    stats_s = [solve_island(rows, iterations) for _, rows in scalar]
    want = [_bits(bodies, rows, stats)
            for (bodies, rows), stats in zip(scalar, stats_s)]
    for path in ("native", "fallback"):
        packed = [_build_island(*size) for size in sizes]
        with pgs_path(path):
            stats_f = solve_islands([rows for _, rows in packed],
                                    iterations)
        got = [_bits(bodies, rows, stats)
               for (bodies, rows), stats in zip(packed, stats_f)]
        assert got == want, path


@RELAXED
@given(seed=st.integers(0, 2**31 - 1), n_bodies=st.integers(2, 8),
       n_rows=st.integers(1, 20), iterations=st.integers(1, 10))
def test_pgs_impulses_respect_bounds(pgs_path, seed, n_bodies, n_rows,
                                     iterations):
    """Projected impulses stay inside [lo, hi]; friction magnitudes
    stay inside the cone set by their normal row's final impulse."""
    for path in ("native", "fallback"):
        _, rows = _build_island(seed, n_bodies, n_rows)
        with pgs_path(path):
            solve_islands([rows], iterations)
        for row in rows:
            if row.inv_k == 0.0:
                # Degenerate row (e.g. static-static pair): solve_once
                # bails before projecting, so impulse stays 0 even when
                # 0 is outside [lo, hi].  Both backends agree on this.
                assert row.impulse == 0.0
                continue
            if row.friction_of is not None:
                bound = row.friction_coeff * row.friction_of.impulse
                assert abs(row.impulse) <= bound + 1e-9
            else:
                assert row.lo - 1e-12 <= row.impulse <= row.hi + 1e-12
            assert math.isfinite(row.impulse)


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
def test_fastpath_cloth_step_bit_identical(nx, ny, spacing, seed, pin):
    """fastpath.step_cloth reproduces Cloth.step to the last bit."""
    a = _noisy_cloth(nx, ny, spacing, seed, pin)
    b = _noisy_cloth(nx, ny, spacing, seed, pin)
    a.ground_height = b.ground_height = 1.0
    gravity = Vec3(0.0, -9.81, 0.0)
    for _ in range(3):
        stats_a = a.step(1.0 / 240.0, gravity)
        stats_b = fp_cloth.step_cloth(b, 1.0 / 240.0, gravity)
        assert stats_a == stats_b
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.prev_positions, b.prev_positions)
