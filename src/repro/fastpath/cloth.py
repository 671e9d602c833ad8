"""Cloth fast path: relaxation in C + collider AABB prefilter.

``step_cloth`` replicates ``Cloth.step`` with

* all ``Cloth.ITERATIONS`` Jakobsen passes in one call to ``pgs.c``'s
  ``cloth_relax``, in place on the cloth's own arrays, with the same
  operations in the same accumulation order as ``Cloth._relax_once``,
  so the positions are bit-identical (without the native library the
  cloth's own ``_relax_once`` runs); and
* a conservative cloth-AABB vs collider-AABB prefilter (expanded by the
  projection margin) that skips colliders whose projection pass would
  have been a no-op anyway.

The Verlet update and pinning are restated in numpy; the collider and
ground projections call the cloth's own routines (``_project_box``
rounds through numpy's ``@``, which a C loop could not promise to
match).
"""

from __future__ import annotations

import numpy as np

from . import solver
from .broadphase import fill_aabbs

# Cloth's projection skin is 0.01; the prefilter expands by a little
# more so rounding in the projection's own distance math can never
# disagree with this conservative AABB test.
_MARGIN = 0.011

# What ``cloth_relax`` reads the cloth's arrays as: positions, link
# endpoints, rest lengths, inverse degrees, pinned flags.
_LAYOUT = (np.float64, np.int64, np.int64, np.float64, np.float64, np.bool_)


def relax(lib, cloth):
    """Every relaxation pass of one sub-step, in C.

    ``Cloth`` builds all six arrays C-contiguous and ``restore_state``
    rebuilds the positions with ``np.array``; a cloth whose arrays have
    another layout or a vertex count its topology does not index is
    refused before C reads them.
    """
    pos = cloth.positions
    arrays = (pos, cloth._ci, cloth._cj, cloth._rest, cloth._inv_degree,
              cloth.pinned)
    n, m = len(cloth.pinned), len(cloth._rest)
    if pos.shape != (n, 3) or not all(
            a.dtype == t and a.flags.c_contiguous
            for a, t in zip(arrays, _LAYOUT)):
        raise TypeError("cloth arrays are not the C-contiguous "
                        "float64/int64 layout cloth_relax reads")
    scratch = np.empty(3 * n + m)
    lib.cloth_relax(*(a.ctypes.data for a in arrays), m, n,
                    cloth.ITERATIONS, scratch.ctypes.data)


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

    lib = solver._native()
    if lib is None:
        for _ in range(cloth.ITERATIONS):
            cloth._relax_once()
    else:
        relax(lib, cloth)

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
