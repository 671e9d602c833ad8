"""Jakobsen position-based cloth (Verlet + averaged-Jacobi relaxation).

The paper's Deformable benchmark uses exactly this formulation: Verlet
integration, iterative distance-constraint relaxation over structural /
shear / bend links, and collision handled by projecting vertices out of
rigid bodies. Vertices are stored in a numpy array so the per-vertex
work vectorizes (the FG-parallel Cloth phase of Fig. 1).
"""

from __future__ import annotations

import numpy as np

from ..math3d import Vec3


class Cloth:
    """Rectangular nx-by-ny cloth hung vertically from ``origin``.

    Vertex (i, j) starts at ``origin + (i*spacing, -j*spacing, 0)`` —
    a curtain in the xy plane; ``pin_top_row`` freezes row j=0 (the
    highest), so drapes hang and fall naturally under gravity.
    """

    ITERATIONS = 8
    DAMPING = 0.985
    GROUND_FRICTION = 0.6

    def __init__(self, nx: int, ny: int, spacing: float, origin: Vec3,
                 pin_top_row: bool = False):
        if nx < 2 or ny < 2:
            raise ValueError("cloth needs at least a 2x2 grid")
        self.nx = nx
        self.ny = ny
        self.spacing = float(spacing)
        self.origin = origin

        pos = np.zeros((nx * ny, 3), dtype=np.float64)
        for j in range(ny):
            for i in range(nx):
                pos[j * nx + i] = (
                    origin.x + i * spacing,
                    origin.y - j * spacing,
                    origin.z,
                )
        self.positions = pos
        self.prev_positions = pos.copy()
        self.pinned = np.zeros(nx * ny, dtype=bool)
        if pin_top_row:
            self.pinned[:nx] = True

        self._build_constraints()
        self.ground_height = None  # y of an infinite floor, or None
        self.contact_bodies = set()
        self.projection_count = 0

    # -- topology -------------------------------------------------------
    def _vid(self, i: int, j: int) -> int:
        return j * self.nx + i

    def _build_constraints(self):
        links = []

        def add(i0, j0, i1, j1, kind):
            a, b = self._vid(i0, j0), self._vid(i1, j1)
            rest = self.spacing * (
                1.0 if kind == "structural"
                else (2.0 ** 0.5 if kind == "shear" else 2.0))
            links.append((a, b, rest))

        for j in range(self.ny):
            for i in range(self.nx):
                if i + 1 < self.nx:
                    add(i, j, i + 1, j, "structural")
                if j + 1 < self.ny:
                    add(i, j, i, j + 1, "structural")
                if i + 1 < self.nx and j + 1 < self.ny:
                    add(i, j, i + 1, j + 1, "shear")
                    add(i + 1, j, i, j + 1, "shear")
                if i + 2 < self.nx:
                    add(i, j, i + 2, j, "bend")
                if j + 2 < self.ny:
                    add(i, j, i, j + 2, "bend")

        self._ci = np.array([l[0] for l in links], dtype=np.int64)
        self._cj = np.array([l[1] for l in links], dtype=np.int64)
        self._rest = np.array([l[2] for l in links], dtype=np.float64)
        # Per-vertex constraint degree: Jacobi corrections are averaged
        # by it so heavily-linked vertices don't overshoot and oscillate.
        degree = np.zeros(self.nx * self.ny, dtype=np.float64)
        np.add.at(degree, self._ci, 1.0)
        np.add.at(degree, self._cj, 1.0)
        self._inv_degree = (1.0 / np.maximum(degree, 1.0))[:, None]

    @property
    def num_vertices(self) -> int:
        return self.nx * self.ny

    @property
    def num_constraints(self) -> int:
        return len(self._rest)

    # -- checkpointing --------------------------------------------------
    def snapshot_state(self) -> dict:
        """Vertex state as JSON-native data; ``tolist`` round-trips
        float64 exactly, so restore is bit-identical."""
        return {
            "positions": self.positions.tolist(),
            "prev_positions": self.prev_positions.tolist(),
        }

    def restore_state(self, state: dict):
        self.positions = np.array(state["positions"], dtype=np.float64)
        self.prev_positions = np.array(state["prev_positions"],
                                       dtype=np.float64)
        return self

    def max_stretch(self) -> float:
        """Worst constraint-length error as a fraction of rest length."""
        d = self.positions[self._cj] - self.positions[self._ci]
        lengths = np.sqrt((d * d).sum(axis=1))
        return float(np.abs(lengths - self._rest).max() / self.spacing)

    # -- simulation -----------------------------------------------------
    def step(self, dt: float, gravity: Vec3, colliders=()):
        """One Verlet step + relaxation + collision projection.

        ``colliders`` is an iterable of geoms (sphere/box) to push the
        cloth out of. Returns the phase stats dict the world's frame
        report accumulates.
        """
        pos = self.positions
        prev = self.prev_positions
        g = np.array([gravity.x, gravity.y, gravity.z])

        velocity = (pos - prev) * self.DAMPING
        new_pos = pos + velocity + g * (dt * dt)
        new_pos[self.pinned] = pos[self.pinned]
        self.prev_positions = pos
        self.positions = new_pos

        for _ in range(self.ITERATIONS):
            self._relax_once()

        self.projection_count = 0
        self.contact_bodies = set()
        for geom in colliders:
            self._project_out_of(geom)
        if self.ground_height is not None:
            self._project_ground()

        return {
            "vertices": self.num_vertices,
            "constraints": self.num_constraints,
            "constraint_updates": self.ITERATIONS * self.num_constraints,
            "projections": self.projection_count,
            "contacts": len(self.contact_bodies),
        }

    def _relax_once(self):
        pos = self.positions
        d = pos[self._cj] - pos[self._ci]
        lengths = np.sqrt((d * d).sum(axis=1))
        np.maximum(lengths, 1e-12, out=lengths)
        # Half the error to each endpoint (Jacobi-averaged Jakobsen).
        corr = (d.T * ((lengths - self._rest) / lengths * 0.5)).T
        delta = np.zeros_like(pos)
        np.add.at(delta, self._ci, corr)
        np.add.at(delta, self._cj, -corr)
        delta[self.pinned] = 0.0
        pos += delta * self._inv_degree

    def _project_ground(self):
        pos = self.positions
        below = pos[:, 1] < self.ground_height
        if below.any():
            # Clamp to the floor and bleed off tangential motion.
            prev = self.prev_positions
            pos[below, 1] = self.ground_height
            slide = pos[below] - prev[below]
            prev[below] = pos[below] - slide * (1.0 - self.GROUND_FRICTION)
            self.projection_count += int(below.sum())

    def _project_out_of(self, geom):
        kind = geom.shape.kind
        if kind == "sphere":
            self._project_sphere(geom)
        elif kind == "box":
            self._project_box(geom)

    def _project_sphere(self, geom):
        c = geom.transform.position
        r = geom.shape.radius + 0.01
        pos = self.positions
        d = pos - np.array([c.x, c.y, c.z])
        dist = np.sqrt((d * d).sum(axis=1))
        inside = dist < r
        if inside.any():
            safe = np.maximum(dist[inside], 1e-9)
            pos[inside] += (d[inside].T * ((r - safe) / safe)).T
            self.projection_count += int(inside.sum())
            if geom.body is not None:
                self.contact_bodies.add(geom.body)

    def _project_box(self, geom):
        tf = geom.transform
        h = geom.shape.half_extents
        margin = 0.01
        pos = self.positions
        # Work in box-local coordinates (vectorized via the rotation
        # matrix rather than per-vertex quaternion rotates).
        rot = tf.orientation.to_mat3()
        r = np.array(rot.m)
        center = np.array([tf.position.x, tf.position.y, tf.position.z])
        local = (pos - center) @ r  # R^T applied row-wise
        half = np.array([h.x + margin, h.y + margin, h.z + margin])
        inside = (np.abs(local) < half).all(axis=1)
        if not inside.any():
            return
        li = local[inside]
        # Push each inside vertex out through its nearest face.
        gaps = half - np.abs(li)
        axis = gaps.argmin(axis=1)
        rows = np.arange(len(li))
        sign = np.where(li[rows, axis] >= 0.0, 1.0, -1.0)
        li[rows, axis] = sign * half[axis]
        local[inside] = li
        pos[inside] = local[inside] @ r.T + center
        self.projection_count += int(inside.sum())
        if geom.body is not None:
            self.contact_bodies.add(geom.body)


__all__ = ["Cloth"]
