"""Packed PGS in C, bit-identical to the scalar oracle
:func:`repro.dynamics.solver.solve_island`.

:class:`PackedRows` gathers many islands' rows into flat ``array('d')``
buffers; ``pgs.c`` runs the oracle's sequential recurrence over them
with the same operations in the same association order.  The system
``cc`` builds it at the first solve into a per-user cache, and it must
reproduce the oracle's bits on a canary island before first use.
Otherwise :func:`solve_islands` runs the oracle itself;
:func:`native_status` says which.
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

from ..dynamics.solver import Row, SolveStats, solve_island
from ..math3d import Mat3, Vec3

_ZERO_INERTIA = ((0.0, 0.0, 0.0),) * 3
_SOURCE = pathlib.Path(__file__).with_name("pgs.c")
# Without FMA contraction or fast-math every double operation rounds
# once, exactly as a Python float does.
_FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")


class PackedRows:
    """SoA view of solver rows from one or more islands.

    Body state (velocities, inverse mass, world-frame inverse inertia)
    is gathered into slot arrays; each row is 22 doubles in the column
    order of ``pgs.c``'s enum: row index, body slots, 12 Jacobian
    components, rhs, cfm, bounds, inv_k, friction linkage.  ``None``
    endpoints map to slot -1.  A static body's slot has inverse mass
    0.0 (``Body.is_static`` is exactly that test): its velocities
    participate in relative-velocity sums exactly like the scalar
    path, but impulses are never applied to it and it is never written
    back.  Island ``i`` owns rows ``start[i]:start[i + 1]``.
    """

    __slots__ = (
        "rows", "start", "row_data", "impulses",
        "vel", "bodies", "inv_mass", "inertia",
    )

    def __init__(self, islands_rows):
        rows = []
        start = [0]
        for rlist in islands_rows:
            rows.extend(rlist)
            start.append(len(rows))
        self.rows = rows
        self.start = array("i", start)

        slot_of = {}
        bodies = []
        vel = []          # [vx, vy, vz, wx, wy, wz] per slot
        inv_mass = []
        inertia = []      # 9 per slot (world inverse inertia, row-major)

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
                vel.extend((v.x, v.y, v.z, w.x, w.y, w.z))
                inv_mass.append(body.inv_mass)
                m0, m1, m2 = (_ZERO_INERTIA if body.is_static
                              else body.inv_inertia_world.m)
                inertia.extend(m0 + m1 + m2)
            return s

        row_index = {}
        data = []
        for k, r in enumerate(rows):
            row_index[r] = k
            ia = slot(r.body_a)
            ib = slot(r.body_b)
            fr = (-1 if r.friction_of is None
                  else row_index[r.friction_of])
            la, aa, lb, ab = r.lin_a, r.ang_a, r.lin_b, r.ang_b
            data.extend((
                k, ia, ib,
                la.x, la.y, la.z, aa.x, aa.y, aa.z,
                lb.x, lb.y, lb.z, ab.x, ab.y, ab.z,
                r.rhs, r.cfm, r.lo, r.hi, r.inv_k,
                fr, r.friction_coeff,
            ))
        self.row_data = array("d", data)
        self.impulses = array("d", [r.impulse for r in rows])
        self.vel = array("d", vel)
        self.bodies = bodies
        self.inv_mass = array("d", inv_mass)
        self.inertia = array("d", inertia)

    def solve(self, kernel, iterations):
        """Run the kernel, then write the solved impulses and body
        velocities back to the objects; one SolveStats per island."""
        n = len(self.start) - 1
        max_delta = array("d", bytes(8 * n))
        residual = array("d", bytes(8 * n))
        scratch = array("i", bytes(4 * n))
        kernel(_addr(self.row_data), _addr(self.start), n,
               _addr(self.vel), _addr(self.inv_mass), _addr(self.inertia),
               _addr(self.impulses), iterations, _addr(max_delta),
               _addr(residual), _addr(scratch))
        for r, imp in zip(self.rows, self.impulses):
            r.impulse = imp
        vel = self.vel
        for s, body in enumerate(self.bodies):
            if not body.is_static:
                o = 6 * s
                body.linear_velocity = Vec3(vel[o], vel[o + 1], vel[o + 2])
                body.angular_velocity = Vec3(vel[o + 3], vel[o + 4],
                                             vel[o + 5])
        counts = [self.start[i + 1] - self.start[i] for i in range(n)]
        return [SolveStats(c, iterations, iterations * c, max_delta[i],
                           residual[i]) for i, c in enumerate(counts)]


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


def _kernel():
    """``pgs_solve`` from the cached library, compiled first if the
    cache has none or holds one the loader refuses."""
    path = _library_path()
    if not os.path.exists(path):
        _compile(path)
    try:
        lib = ctypes.CDLL(path)
    except OSError:  # a truncated or corrupt cache entry
        _compile(path)
        lib = ctypes.CDLL(path)
    kernel = lib.pgs_solve
    kernel.restype = None
    p, i = ctypes.c_void_p, ctypes.c_int
    kernel.argtypes = (p, p, i, p, p, p, p, i, p, p, p)
    return kernel


class _Body:
    """What a Row and PackedRows read of a body.  A real ``Body`` would
    draw a uid from the process-wide counter, which the canary must not
    move."""

    __slots__ = ("linear_velocity", "angular_velocity", "inv_mass",
                 "inv_inertia_world", "is_static")

    def __init__(self, vel, inv_mass, inertia=None):
        self.linear_velocity = Vec3(*vel[:3])
        self.angular_velocity = Vec3(*vel[3:])
        self.inv_mass = inv_mass
        self.is_static = inv_mass == 0.0
        self.inv_inertia_world = Mat3(inertia)


def _canary_island():
    """A friction row, ``None`` endpoints, a moving static body on either
    side of a row, a warm-started row with cfm, ±inf bounds and an
    ``inv_k == 0.0`` row."""
    a = _Body((0.3, -1.1, 0.2, 0.1, 0.7, -0.4), 0.5,
              ((0.9, 0.1, -0.2), (0.1, 1.3, 0.05), (-0.2, 0.05, 0.7)))
    b = _Body((-0.6, 0.2, 0.9, -0.3, 0.05, 0.2), 1.4,
              ((2.1, -0.3, 0.0), (-0.3, 1.7, 0.4), (0.0, 0.4, 1.1)))
    static = _Body((0.05, -0.02, 0.11, 0.0, 0.03, -0.07), 0.0)
    none = (0.0,) * 6

    def row(body_a, body_b, jac, **kw):
        return Row(body_a, body_b,
                   *(Vec3(*jac[i:i + 3]) for i in (0, 3, 6, 9)), **kw)

    normal = row(a, None, (0.0, 1.0, 0.0, 0.2, 0.0, -0.3) + none,
                 rhs=0.4, lo=0.0)
    joint = row(a, b, (0.7, -0.1, 0.3, 0.1, 0.4, -0.2,
                       -0.7, 0.1, -0.3, -0.3, 0.2, 0.5), rhs=-0.2, cfm=0.05)
    joint.impulse = 0.3
    return [a, b], [
        normal,
        row(a, None, (1.0, 0.0, 0.0, 0.0, -0.3, 0.1) + none,
            friction_of=normal, friction_coeff=0.6),
        joint,
        row(b, static, (0.0, 0.6, 0.8, 0.3, 0.0, 0.1,
                        0.0, -0.6, -0.8, 0.1, -0.2, 0.3),
            rhs=0.1, lo=-0.5, hi=0.5),
        row(static, a, (0.3, 0.9, -0.1, 0.2, -0.1, 0.4,
                        -0.3, -0.9, 0.1, 0.05, 0.3, -0.2), rhs=0.25, hi=0.8),
        row(static, None, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0) + none, rhs=1.0),
    ]


def _canary_agrees(kernel) -> bool:
    """Whether the kernel reproduces every bit of the oracle's solve."""
    def bits(solve):
        bodies, rows = _canary_island()
        s = solve(rows)
        out = [s.max_delta, s.residual] + [r.impulse for r in rows]
        for body in bodies:
            v, w = body.linear_velocity, body.angular_velocity
            out += [v.x, v.y, v.z, w.x, w.y, w.z]
        return [x.hex() for x in out]
    return (bits(lambda rows: PackedRows([rows]).solve(kernel, 20)[0])
            == bits(solve_island))


@functools.lru_cache(maxsize=None)
def _load():
    """``(kernel, "")``, or ``(None, reason)`` to use the oracle."""
    try:
        kernel = _kernel()
        if _canary_agrees(kernel):
            return kernel, ""
        reason = "canary"
    except OSError as exc:  # no cc, failed compile, unreadable file, no load
        reason = str(exc)
    import logging  # here, like subprocess in _compile
    logging.getLogger("repro.fastpath").warning(
        "native PGS kernel unavailable (%s); using the oracle", reason)
    return None, reason


def _native():
    """The C kernel, or None for the scalar fallback."""
    return _load()[0]


def native_status() -> str:
    """``"native"`` when :func:`solve_islands` runs the C kernel, else
    ``"fallback: <reason>"``."""
    if _native() is None:
        return "fallback: " + (_load()[1] or "disabled")
    return "native"


def solve_islands(islands_rows, iterations: int = 20):
    """Solve several independent islands' row lists in one packed pass.

    Returns one :class:`SolveStats` per input island, identical to
    calling the scalar ``solve_island`` on each — which is what runs
    when the C kernel is unavailable.
    """
    islands_rows = [list(r) for r in islands_rows]
    kernel = _native()
    if kernel is None:
        return [solve_island(rows, iterations) for rows in islands_rows]
    return PackedRows(islands_rows).solve(kernel, iterations)
