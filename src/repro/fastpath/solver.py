"""Constraint rows built and swept in C, bit-identical to the scalar
oracle (``begin_step`` + ``Row.warm_start``, then
:func:`repro.dynamics.solver.solve_island`), and the loader of the one
C library, ``pgs.c``, that also relaxes cloth and tests box/box pairs.

A :class:`PackedRows` lays many islands' rows out in flat
``array('d')`` buffers; ``pgs.c`` builds every contact and joint row
straight into them (:mod:`.rows`, :mod:`.joints`) and runs the
oracle's sequential sweep over them, with the same operations in the
same association order.  No ``Row`` object exists on this path.  The
system ``cc`` builds the library at first use into a per-user cache,
and it must reproduce the oracle's bits before first use: on a canary
scene, built and swept, on a small pinned cloth's relaxation passes
and on three box/box pairs.  Otherwise :func:`native_status` says why,
and the numpy kernel set runs the oracle instead: ``build_rows`` and
``solve``, ``Cloth._relax_once`` and ``collide``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import pathlib
import platform
import tempfile
from array import array
from types import SimpleNamespace

from ..collision.narrowphase import Contact
from ..dynamics.islands import Island
from ..dynamics.joints import (ERP, BallJoint, ContactJoint, FixedJoint,
                               HingeJoint)
from ..dynamics.solver import SolveStats
from ..math3d import Mat3, Quaternion, Vec3

#: Doubles per row and per body slot: ``pgs.c``'s NCOL and NBODY.
ROW_COLS, BODY_COLS = 22, 23

# pgs.c's joint kinds, and the rows each builds.
BALL, HINGE, MOTOR_HINGE, FIXED = range(4)
_KIND_ROWS = (3, 5, 6, 6)
_KINDS = {BallJoint: BALL, HingeJoint: HINGE, FixedJoint: FIXED}

_ZERO_INERTIA = ((0.0, 0.0, 0.0),) * 3
_SOURCE = pathlib.Path(__file__).with_name("pgs.c")
# Without FMA contraction or fast-math every double operation rounds
# once, exactly as a Python float does.
_FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")


class PackedRows:
    """Many islands' constraint rows in the buffers ``pgs.c`` fills and
    sweeps.

    Island ``i`` owns rows ``start[i]:start[i + 1]``: each of its
    contacts' rows (a normal row, then two friction rows if the contact
    has friction), then each of its joints' rows.  ``rows`` holds
    ``ROW_COLS`` doubles per row in the column order of ``pgs.c``'s
    row enum: row index, body slots, 12 Jacobian components, rhs, cfm,
    bounds, inv_k, friction linkage; ``impulses`` one accumulated
    impulse per row.  ``slots`` holds ``BODY_COLS`` doubles per
    constraint endpoint (``bodies[s]`` is slot ``s``'s body):
    velocity, inverse mass, world inverse inertia, position and
    orientation.  A ``None`` endpoint is slot -1; a static body's slot
    has inverse mass 0.0 and zero inertia (``Body.is_static`` is that
    test), so the kernels read its velocity but never write it.

    ``contacts`` and ``joints`` list each constraint with its rows'
    span, joints also with their ``pgs.c`` kind; the builders fill
    those spans and :meth:`solve` leaves each constraint's solved
    impulses on it as an ``impulses`` tuple.
    """

    __slots__ = ("lib", "start", "rows", "impulses", "slots", "bodies",
                 "slot_of", "contacts", "joints")

    def __init__(self, islands, lib):
        self.lib = lib
        start = [0]
        contacts = []
        joints = []
        n = 0
        for island in islands:
            for cj in island.contact_joints:
                end = n + (3 if cj.friction > 0.0 else 1)
                contacts.append((cj, n, end))
                n = end
            for joint in island.joints:
                kind = _KINDS[type(joint)]
                if (kind == HINGE and joint.motor_velocity is not None
                        and joint.motor_max_force > 0.0):
                    kind = MOTOR_HINGE
                end = n + _KIND_ROWS[kind]
                joints.append((joint, n, end, kind))
                n = end
            start.append(n)
        self.start = array("i", start)
        self.contacts = contacts
        self.joints = joints
        self.rows = array("d", bytes(8 * ROW_COLS * n))
        self.impulses = array("d", bytes(8 * n))
        self.slots = array("d")
        self.bodies = []
        self.slot_of = {None: -1}

    def slot(self, body):
        """``body``'s slot, gathered at its first use."""
        s = self.slot_of.get(body)
        if s is None:
            s = self.slot_of[body] = len(self.bodies)
            self.bodies.append(body)
            v, w = body.linear_velocity, body.angular_velocity
            p, q = body.position, body.orientation
            m0, m1, m2 = (_ZERO_INERTIA if body.is_static
                          else body.inv_inertia_world.m)
            self.slots.extend((v.x, v.y, v.z, w.x, w.y, w.z, body.inv_mass,
                               *m0, *m1, *m2, p.x, p.y, p.z,
                               q.w, q.x, q.y, q.z))
        return s

    def solve(self, iterations):
        """Sweep, then write each constraint's impulses and each dynamic
        body's velocities back; one SolveStats per island."""
        n = len(self.start) - 1
        max_delta = array("d", bytes(8 * n))
        residual = array("d", bytes(8 * n))
        scratch = array("i", bytes(4 * n))
        self.lib.pgs_solve(_addr(self.rows), _addr(self.start), n,
                           _addr(self.slots), _addr(self.impulses),
                           iterations, _addr(max_delta), _addr(residual),
                           _addr(scratch))
        imp = self.impulses.tolist()
        for cj, at, end in self.contacts:
            cj.impulses = tuple(imp[at:end])
        for joint, at, end, _kind in self.joints:
            joint.impulses = tuple(imp[at:end])
        slots = self.slots
        for s, body in enumerate(self.bodies):
            if not body.is_static:
                o = BODY_COLS * s
                body.linear_velocity = Vec3(slots[o], slots[o + 1],
                                            slots[o + 2])
                body.angular_velocity = Vec3(slots[o + 3], slots[o + 4],
                                             slots[o + 5])
        start = self.start
        return [SolveStats(c, iterations, iterations * c, max_delta[i],
                           residual[i])
                for i, c in enumerate(start[i + 1] - start[i]
                                      for i in range(n))]


def _addr(buf):
    return buf.buffer_info()[0]


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser(
        "~/.cache")
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError:
        return tempfile.gettempdir()
    return path if os.access(path, os.W_OK) else tempfile.gettempdir()


def _library_path() -> str:
    """The cache entry for this source, these flags and this machine."""
    key = hashlib.sha256(_SOURCE.read_bytes()
                         + " ".join(_FLAGS).encode()
                         + platform.machine().encode()).hexdigest()
    return os.path.join(_cache_dir(), f"pgs-{key[:16]}.so")


def _compile(path: str):
    """Build into a private temp file, then rename it into place, so a
    process racing on the same cold cache never loads a half-written
    library."""
    import subprocess  # here, not at import: every engine user would pay
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        done = subprocess.run(["cc", *_FLAGS, "-o", tmp, str(_SOURCE)],
                              capture_output=True)
        if done.returncode:
            raise OSError("cc failed: "
                          + done.stderr.decode(errors="replace"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library():
    """The cached library, compiled first if the cache has none or holds
    one the loader refuses, with its five entry points typed."""
    path = _library_path()
    if not os.path.exists(path):
        _compile(path)
    try:
        lib = ctypes.CDLL(path)
    except OSError:  # a truncated or corrupt cache entry
        _compile(path)
        lib = ctypes.CDLL(path)
    p, i, d = ctypes.c_void_p, ctypes.c_int, ctypes.c_double
    i64 = ctypes.c_int64
    for name, argtypes in (
            ("pgs_contacts", (p, i, d, d, d, d, p, p, p)),
            ("pgs_joints", (p, i, d, d, p, p, p)),
            ("pgs_solve", (p, p, i, p, p, i, p, p, p)),
            ("cloth_relax", (p, p, p, p, p, p, i64, i64, i, p)),
            ("box_box", (p, i, p, p, p))):
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = argtypes
    return lib


class _Body:
    """What the row builders and the sweep read of a body.  A real
    ``Body`` would draw a uid from the process-wide counter, which the
    canary must not move."""

    __slots__ = ("position", "orientation", "linear_velocity",
                 "angular_velocity", "inv_mass", "inv_inertia_world",
                 "is_static")

    def __init__(self, vel, inv_mass, inertia=None, position=(0.0,) * 3,
                 orientation=(1.0, 0.0, 0.0, 0.0)):
        self.position = Vec3(*position)
        self.orientation = Quaternion(*orientation).normalized()
        self.linear_velocity = Vec3(*vel[:3])
        self.angular_velocity = Vec3(*vel[3:])
        self.inv_mass = inv_mass
        self.is_static = inv_mass == 0.0
        self.inv_inertia_world = Mat3(inertia or _ZERO_INERTIA)


def _canary_scene():
    """Two islands for the canary, and their warm-start cache.

    Island 0: a friction contact between two bodies, closing fast
    enough to bounce and warm-started on all three rows; a frictionless
    contact with a moving static body as its first endpoint,
    warm-started on its normal row; a ball joint, a motor hinge and a
    fixed joint to the static body as its second endpoint.  Island 1: a warm-started friction contact against a static
    geom (a ``None`` endpoint), and a warm-started friction contact
    between the static body and a static geom, whose rows have
    ``inv_k == 0.0`` and are skipped by the sweep.
    """
    # Inertia with four significant digits: with rounder entries the
    # effective mass's sums come out exact in any association order.
    inertia = ((0.9137, 0.1371, -0.2193), (0.1371, 1.3117, 0.0531),
               (-0.2193, 0.0531, 0.7271))
    a = _Body((0.3, -2.1, 0.2, 0.1, 0.7, -0.4), 0.5, inertia,
              (0.1, 1.0, -0.2), (0.9, 0.1, -0.3, 0.2))
    b = _Body((-0.6, 1.2, 0.9, -0.3, 0.05, 0.2), 1.4,
              ((2.1, -0.3, 0.0), (-0.3, 1.7, 0.4), (0.0, 0.4, 1.1)),
              (0.4, 2.1, 0.3), (0.7, -0.2, 0.5, 0.1))
    c = _Body((0.2, -0.4, 0.1, 0.3, -0.2, 0.6), 0.8, inertia,
              (3.0, 0.5, 1.0), (0.95, 0.0, 0.2, -0.1))
    static = _Body((0.05, -0.02, 0.11, 0.0, 0.03, -0.07), 0.0, None,
                   (0.0, -0.5, 0.0), (0.8, 0.3, 0.1, -0.2))

    def contact(index, body_a, body_b, point, normal, depth, **material):
        geoms = [SimpleNamespace(body=body, index=index + i)
                 for i, body in enumerate((body_a, body_b))]
        return ContactJoint(Contact(*geoms, Vec3(*point),
                                    Vec3(*normal).normalized(), depth),
                            **material)

    bounce = contact(0, a, b, (0.3, 1.5, 0.0), (0.2, 1.0, -0.1), 0.02,
                     friction=0.6, restitution=0.5)
    ground = contact(2, static, a, (0.1, 0.1, -0.3), (-0.1, -1.0, 0.0),
                     0.003, friction=0.0, restitution=0.0)
    dropped = contact(4, None, c, (3.0, 0.1, 1.1), (0.0, -1.0, 0.2), 0.3,
                      friction=0.9, restitution=0.0)
    stuck = contact(6, static, None, (0.2, -0.9, 0.4), (0.3, 1.0, 0.1),
                    0.05, friction=0.5, restitution=0.4)
    hinge = HingeJoint(a, b, Vec3(0.2, 1.6, 0.0), Vec3(0.3, 0.1, 1.0))
    hinge.set_motor(1.5, 40.0)
    islands = [Island(), Island()]
    islands[0].bodies = [a, b]
    islands[0].contact_joints = [bounce, ground]
    islands[0].joints = [BallJoint(a, b, Vec3(0.3, 1.4, 0.1)), hinge,
                         FixedJoint(b, static)]
    islands[1].bodies = [c]
    islands[1].contact_joints = [dropped, stuck]
    # Drift far off the assembled pose: for a small anchor error the
    # subtractions in it are exact, and a reassociated one would pass.
    for joint in islands[0].joints:
        joint.body_a.position += Vec3(0.31, -0.47, 0.23)
    cache = {bounce.cache_key: (0.4, -0.05, 0.02),
             ground.cache_key: (0.1,),
             dropped.cache_key: (0.25, 0.03, -0.01),
             stuck.cache_key: (0.2, 0.1, -0.05)}
    return [a, b, c, static], islands, cache


def _canary_agrees(lib) -> bool:
    """Whether ``pgs_contacts``/``pgs_joints`` reproduce the oracle's
    ``build_rows`` on the canary scene: the same warm-started
    velocities, and after the sweep the same impulses on every
    constraint and the same body velocities; and whether the cloth and
    box/box kernels agree with theirs."""
    from ..engine import scalar
    from . import joints, rows

    dt = 0.01

    def velocities(bodies):
        return [c.hex() for body in bodies
                for v in (body.linear_velocity, body.angular_velocity)
                for c in (v.x, v.y, v.z)]

    def run(build, solve):
        bodies, islands, cache = _canary_scene()
        built, warm = build(bodies, islands, cache)
        stats = solve(built)
        return (warm, [(s.max_delta.hex(), s.residual.hex())
                       for s in stats],
                [[x.hex() for x in c.impulses] for island in islands
                 for c in island.contact_joints + island.joints],
                velocities(bodies))

    def oracle(bodies, islands, cache):
        world = SimpleNamespace(
            config=SimpleNamespace(warm_starting=True),
            _impulse_cache=cache)
        built = scalar.build_rows(world, islands, dt)
        return built, velocities(bodies)

    def native(bodies, islands, cache):
        pack = rows.build_contact_rows(islands, lib, dt, ERP, cache)
        joints.build_joint_rows(pack, dt, ERP)
        # Every canary body is an endpoint, so every one has a slot.
        at = [BODY_COLS * pack.slot_of[body] for body in bodies]
        return pack, [c.hex() for o in at for c in pack.slots[o:o + 6]]

    return (run(native, lambda pack: pack.solve(20))
            == run(oracle, lambda built: scalar.solve(built, 20))
            and _cloth_agrees(lib) and _box_box_agrees(lib))


def _cloth_agrees(lib) -> bool:
    """Whether ``cloth_relax`` leaves a small, noisy cloth with its top
    row pinned byte for byte where ``Cloth._relax_once`` does, one of
    its links shrunk to zero length so the 1e-12 floor is taken."""
    import numpy as np

    from ..cloth import Cloth
    from . import cloth as fp_cloth

    def noisy():
        cloth = Cloth(4, 3, 0.1, Vec3(0.0, 2.0, 0.0), pin_top_row=True)
        k = np.arange(cloth.positions.size, dtype=np.float64)
        cloth.positions += 0.031 * np.sin(1.7 * k).reshape(-1, 3)
        cloth.positions[5] = cloth.positions[4]
        return cloth

    oracle, native = noisy(), noisy()
    for _ in range(oracle.ITERATIONS):
        oracle._relax_once()
    fp_cloth.relax(lib, native)
    return oracle.positions.tobytes() == native.positions.tobytes()


def _canary_boxes():
    """Three box pairs: a face contact, an edge-edge contact (feature
    16) and a separated pair."""
    from ..geometry import Box
    from ..math3d import Transform

    def box(position, axis, angle, half):
        # A Geom would draw a uid; _box_box reads only these two.
        return SimpleNamespace(
            shape=Box(Vec3(*half)),
            transform=Transform(Vec3(*position), Quaternion.from_axis_angle(
                Vec3(*axis), angle)))

    return [
        (box((0.05, 0.93, -0.02), (0.2, 1.0, 0.1), 0.3, (0.5, 0.45, 0.4)),
         box((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.1, (1.0, 0.5, 0.8))),
        (box((0.03, 1.4, -0.02), (1.0, 0.0, 0.0), 0.785, (0.5, 0.5, 0.5)),
         box((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.785, (0.5, 0.5, 0.5))),
        (box((2.5, 0.3, 0.0), (0.3, 0.2, 1.0), 0.7, (0.5, 0.4, 0.3)),
         box((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.2, (0.6, 0.5, 0.4))),
    ]


def _box_box_agrees(lib) -> bool:
    """Whether ``box_box`` gives ``_box_box``'s contacts, bit for bit, on
    the canary's box pairs."""
    from ..collision.narrowphase import _box_box
    from . import narrowphase

    def bits(contacts):
        return [(c.feature, *(x.hex() for x in (
            c.position.x, c.position.y, c.position.z, c.normal.x,
            c.normal.y, c.normal.z, c.depth))) for c in contacts]

    pairs = _canary_boxes()
    return ([bits(found) for found in narrowphase.box_box(lib, pairs)]
            == [bits(_box_box(a, b)) for a, b in pairs])


@functools.lru_cache(maxsize=None)
def _load():
    """``(library, "")``, or ``(None, reason)`` to use the oracle."""
    try:
        lib = _library()
        if _canary_agrees(lib):
            return lib, ""
        reason = "canary"
    except OSError as exc:  # no cc, failed compile, unreadable file, no load
        reason = str(exc)
    import logging  # here, like subprocess in _compile
    logging.getLogger("repro.fastpath").warning(
        "native kernels unavailable (%s); using the oracle", reason)
    return None, reason


def _native():
    """The C library, or None for the scalar fallback."""
    return _load()[0]


def native_status() -> str:
    """``"native"`` when the numpy kernel set builds and solves rows,
    relaxes cloth and tests box/box pairs in C, else
    ``"fallback: <reason>"``."""
    if _native() is None:
        return "fallback: " + (_load()[1] or "disabled")
    return "native"


def solve_islands(pack: PackedRows, iterations: int = 20):
    """Solve every island of ``pack`` in one C sweep; one
    :class:`SolveStats` per island, identical to the scalar
    ``solve_island`` on each island's rows."""
    return pack.solve(iterations)
