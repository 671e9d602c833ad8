"""Cloth fast path: bincount relaxation + collider AABB prefilter.

The scalar :class:`~repro.cloth.Cloth` is already vectorized per-vertex;
what remains hot is the pair of ``np.add.at`` scatters in each of the
eight relaxation iterations and the per-collider projection passes that
run even when a collider is nowhere near the cloth.  ``step_cloth``
replicates ``Cloth.step`` with

* the two ``np.add.at`` calls fused into per-component ``np.bincount``
  over the concatenated endpoint indices — the same accumulation order
  element by element, so the sums are bit-identical; and
* a conservative cloth-AABB vs collider-AABB prefilter (expanded by the
  projection margin) that skips colliders whose projection pass would
  have been a no-op anyway.

Everything else — Verlet, pinning, ground contact — calls straight into
the cloth's own routines.
"""

from __future__ import annotations

import numpy as np

from .broadphase import fill_aabbs

# Cloth's projection skin is 0.01; the prefilter expands by a little
# more so rounding in the projection's own distance math can never
# disagree with this conservative AABB test.
_MARGIN = 0.011


def _relax_indices(cloth):
    """Flattened (vertex*3 + component) bins for one fused bincount.

    Each output bin receives exactly the elements the per-component
    bincounts fed it, in the same relative order, so the accumulated
    sums are bit-identical.
    """
    idx = getattr(cloth, "_fastpath_relax_idx3", None)
    if idx is None or len(idx) != 6 * len(cloth._ci):
        base = np.concatenate((cloth._ci, cloth._cj))
        idx = np.repeat(base * 3, 3) + np.tile(np.arange(3), len(base))
        cloth._fastpath_relax_idx3 = idx
    return idx


def _relax_once(cloth):
    pos = cloth.positions
    d = pos[cloth._cj] - pos[cloth._ci]
    lengths = np.sqrt((d * d).sum(axis=1))
    np.maximum(lengths, 1e-12, out=lengths)
    corr = d * ((lengths - cloth._rest) / lengths * 0.5)[:, None]
    m = len(corr)
    w = np.empty((2 * m, 3))
    w[:m] = corr
    np.negative(corr, out=w[m:])
    idx3 = _relax_indices(cloth)
    n = len(pos)
    delta = np.bincount(idx3, weights=w.ravel(),
                        minlength=3 * n).reshape(n, 3)
    delta[cloth.pinned] = 0.0
    delta *= cloth._inv_degree
    pos += delta


def collider_bounds(colliders):
    """Margin-expanded AABB arrays for the step's cloth colliders.

    Computed once per step and shared by every cloth's prefilter.
    """
    n = len(colliders)
    lo = np.empty((n, 3))
    hi = np.empty((n, 3))
    fill_aabbs(colliders, lo, hi)
    return lo - _MARGIN, hi + _MARGIN


def step_cloth(cloth, dt: float, gravity, colliders=(), bounds=None):
    """Drop-in for ``Cloth.step`` (bit-identical trajectories)."""
    pos = cloth.positions
    prev = cloth.prev_positions
    g = np.array([gravity.x, gravity.y, gravity.z])

    velocity = (pos - prev) * cloth.DAMPING
    new_pos = pos + velocity + g * (dt * dt)
    new_pos[cloth.pinned] = pos[cloth.pinned]
    cloth.prev_positions = pos
    cloth.positions = new_pos

    for _ in range(cloth.ITERATIONS):
        _relax_once(cloth)

    cloth.projection_count = 0
    cloth.contact_bodies = set()
    if colliders:
        if bounds is None:
            bounds = collider_bounds(colliders)
        glo, ghi = bounds
        lo = cloth.positions.min(axis=0)
        hi = cloth.positions.max(axis=0)
        near = ((lo <= ghi) & (glo <= hi)).all(axis=1)
        for i in np.nonzero(near)[0]:
            cloth._project_out_of(colliders[i])
    if cloth.ground_height is not None:
        cloth._project_ground()

    return {
        "vertices": cloth.num_vertices,
        "constraints": cloth.num_constraints,
        "constraint_updates": cloth.ITERATIONS * cloth.num_constraints,
        "projections": cloth.projection_count,
        "contacts": len(cloth.contact_bodies),
    }
