"""Narrowphase: contact generation for every supported shape pair.

``collide(geom_a, geom_b)`` returns a list of :class:`Contact` whose
normals point **from geom_b toward geom_a** (pushing ``a`` along the
normal separates the pair). ``feature`` identifies which vertex/face
produced the point, keying the warm-start impulse cache across steps.
"""

from __future__ import annotations

from ..math3d import Vec3

# Treat a vertex as touching slightly before it penetrates, so resting
# manifolds (which hover around the solver's penetration slop) keep all
# their points from step to step.
CONTACT_MARGIN = 0.002


class Contact:
    __slots__ = ("geom_a", "geom_b", "position", "normal", "depth",
                 "feature")

    def __init__(self, geom_a, geom_b, position: Vec3, normal: Vec3,
                 depth: float, feature: int = 0):
        self.geom_a = geom_a
        self.geom_b = geom_b
        self.position = position
        self.normal = normal
        self.depth = depth
        self.feature = feature

    def __repr__(self):
        return (f"Contact(at={self.position!r}, n={self.normal!r},"
                f" depth={self.depth:.4g}, feature={self.feature})")

    def flipped(self, geom_a, geom_b) -> "Contact":
        return Contact(geom_a, geom_b, self.position, -self.normal,
                       self.depth, self.feature)


# ---------------------------------------------------------------------------
# sphere vs *


def _sphere_sphere(ga, gb):
    pa, pb = ga.transform.position, gb.transform.position
    ra, rb = ga.shape.radius, gb.shape.radius
    delta = pa - pb
    dist = delta.length()
    depth = ra + rb - dist
    if depth < -CONTACT_MARGIN:
        return []
    n = delta / dist if dist > 1e-9 else Vec3(0, 1, 0)
    pos = pb + n * (rb - 0.5 * depth)
    return [Contact(ga, gb, pos, n, max(0.0, depth))]


def _sphere_plane(ga, gb):
    plane = gb.shape
    c = ga.transform.position
    d = plane.signed_distance(c)
    depth = ga.shape.radius - d
    if depth < -CONTACT_MARGIN:
        return []
    n = plane.normal
    pos = c - n * d
    return [Contact(ga, gb, pos, n, max(0.0, depth))]


def _sphere_box(ga, gb):
    box_tf = gb.transform
    h = gb.shape.half_extents
    c_local = box_tf.apply_inverse(ga.transform.position)
    clamped = Vec3(
        min(max(c_local.x, -h.x), h.x),
        min(max(c_local.y, -h.y), h.y),
        min(max(c_local.z, -h.z), h.z),
    )
    delta = c_local - clamped
    dist_sq = delta.length_squared()
    r = ga.shape.radius
    if dist_sq > 1e-18:
        dist = dist_sq ** 0.5
        depth = r - dist
        if depth < -CONTACT_MARGIN:
            return []
        n_local = delta / dist
        pos_local = clamped
    else:
        # Center inside the box: exit through the nearest face.
        gaps = [
            (h.x - abs(c_local.x), Vec3(1.0 if c_local.x >= 0 else -1.0,
                                        0, 0)),
            (h.y - abs(c_local.y), Vec3(0, 1.0 if c_local.y >= 0 else -1.0,
                                        0)),
            (h.z - abs(c_local.z), Vec3(0, 0,
                                        1.0 if c_local.z >= 0 else -1.0)),
        ]
        gap, n_local = min(gaps, key=lambda g: g[0])
        depth = r + gap
        pos_local = c_local
    n = box_tf.apply_vector(n_local)
    pos = box_tf.apply(pos_local)
    return [Contact(ga, gb, pos, n, max(0.0, depth))]


def _sphere_heightfield(ga, gb):
    hf = gb.shape
    c = gb.transform.apply_inverse(ga.transform.position)
    h = hf.height_at(c.x, c.z)
    r = ga.shape.radius
    if c.y - h > r + CONTACT_MARGIN:
        return []
    n_local = hf.normal_at(c.x, c.z)
    surface = Vec3(c.x, h, c.z)
    depth = r - n_local.dot(c - surface)
    if depth < 0.0:
        return []
    n = gb.transform.apply_vector(n_local)
    pos = gb.transform.apply(surface)
    return [Contact(ga, gb, pos, n, depth)]


# ---------------------------------------------------------------------------
# box vs *


def _box_plane(ga, gb):
    plane = gb.shape
    tf = ga.transform
    contacts = []
    for i, corner in enumerate(ga.shape.corners()):
        p = tf.apply(corner)
        sd = plane.signed_distance(p)
        if sd < CONTACT_MARGIN:
            contacts.append(Contact(ga, gb, p, plane.normal,
                                    max(0.0, -sd), feature=i))
    return contacts


def _box_heightfield(ga, gb):
    hf = gb.shape
    tf = ga.transform
    inv = gb.transform
    contacts = []
    for i, corner in enumerate(ga.shape.corners()):
        p = inv.apply_inverse(tf.apply(corner))
        h = hf.height_at(p.x, p.z)
        pen = h - p.y
        if pen > -CONTACT_MARGIN:
            n_local = hf.normal_at(p.x, p.z)
            n = gb.transform.apply_vector(n_local)
            pos = gb.transform.apply(Vec3(p.x, p.y, p.z))
            contacts.append(Contact(ga, gb, pos, n,
                                    max(0.0, pen * n_local.y), feature=i))
    return contacts


def _box_axes(geom):
    rot = geom.transform.orientation.to_mat3()
    return [rot.column(0), rot.column(1), rot.column(2)]


def _box_extent_along(geom, axis: Vec3) -> float:
    h = geom.shape.half_extents
    ax = _box_axes(geom)
    return (abs(axis.dot(ax[0])) * h.x + abs(axis.dot(ax[1])) * h.y
            + abs(axis.dot(ax[2])) * h.z)


def _point_in_box(p_world: Vec3, geom, margin: float) -> bool:
    h = geom.shape.half_extents
    p = geom.transform.apply_inverse(p_world)
    return (abs(p.x) <= h.x + margin and abs(p.y) <= h.y + margin
            and abs(p.z) <= h.z + margin)


def _box_box(ga, gb):
    """SAT over the 15 candidate axes, manifold from penetrating corners."""
    ca = ga.transform.position
    cb = gb.transform.position
    delta = ca - cb
    axes_a = _box_axes(ga)
    axes_b = _box_axes(gb)

    candidates = list(axes_a) + list(axes_b)
    for u in axes_a:
        for v in axes_b:
            cross = u.cross(v)
            if cross.length_squared() > 1e-12:
                candidates.append(cross.normalized())

    best_overlap = float("inf")
    best_axis = None
    for axis in candidates:
        span = _box_extent_along(ga, axis) + _box_extent_along(gb, axis)
        dist = axis.dot(delta)
        overlap = span - abs(dist)
        if overlap < -CONTACT_MARGIN:
            return []
        if overlap < best_overlap:
            best_overlap = overlap
            # Orient from b toward a.
            best_axis = axis if dist >= 0 else -axis

    n = best_axis
    contacts = []
    # Corners of A inside B: depth measured to B's far surface along n.
    b_face = n.dot(cb) + _box_extent_along(gb, n)
    for i, corner in enumerate(ga.shape.corners()):
        p = ga.transform.apply(corner)
        if _point_in_box(p, gb, CONTACT_MARGIN):
            depth = b_face - n.dot(p)
            contacts.append(Contact(ga, gb, p, n, max(0.0, depth),
                                    feature=i))
    # Corners of B inside A.
    a_face = n.dot(ca) - _box_extent_along(ga, n)
    for i, corner in enumerate(gb.shape.corners()):
        p = gb.transform.apply(corner)
        if _point_in_box(p, ga, CONTACT_MARGIN):
            depth = n.dot(p) - a_face
            contacts.append(Contact(ga, gb, p, n, max(0.0, depth),
                                    feature=8 + i))
    if not contacts:
        # Edge-edge (or grazing) case: single point at A's support
        # toward B, with the SAT overlap as depth.
        support = ca
        for axis, h in zip(axes_a, (ga.shape.half_extents.x,
                                    ga.shape.half_extents.y,
                                    ga.shape.half_extents.z)):
            s = axis.dot(n)
            support = support - axis * (h if s > 0 else -h)
        contacts.append(Contact(ga, gb, support, n,
                                max(0.0, best_overlap), feature=16))
    return contacts


# ---------------------------------------------------------------------------
# dispatch

_DISPATCH = {
    ("sphere", "sphere"): _sphere_sphere,
    ("sphere", "plane"): _sphere_plane,
    ("sphere", "box"): _sphere_box,
    ("sphere", "heightfield"): _sphere_heightfield,
    ("box", "plane"): _box_plane,
    ("box", "box"): _box_box,
    ("box", "heightfield"): _box_heightfield,
}


def collide(geom_a, geom_b):
    """Contacts between two geoms (normals point from b to a)."""
    ka, kb = geom_a.shape.kind, geom_b.shape.kind
    fn = _DISPATCH.get((ka, kb))
    if fn is not None:
        return fn(geom_a, geom_b)
    fn = _DISPATCH.get((kb, ka))
    if fn is not None:
        return [c.flipped(geom_a, geom_b) for c in fn(geom_b, geom_a)]
    return []  # unsupported pair (e.g. plane-plane) never collides
