"""Velocity-level constraint rows and the projected Gauss-Seidel solver.

Every joint (including contacts) compiles to one or more :class:`Row`
objects each step. A row is the scalar constraint

    J v = [lin_a ang_a lin_b ang_b] . [va wa vb wb] -> rhs

with the impulse accumulated over iterations clamped to [lo, hi]
(projected GS / sequential impulses, i.e. ODE's quickstep). Friction
rows reference their normal row so the friction cone is re-clamped with
the current normal impulse every iteration.
"""

from __future__ import annotations

from ..math3d import Vec3


class Row:
    __slots__ = (
        "body_a", "body_b", "lin_a", "ang_a", "lin_b", "ang_b",
        "rhs", "cfm", "lo", "hi", "impulse", "inv_k",
        "friction_of", "friction_coeff", "joint",
    )

    def __init__(self, body_a, body_b, lin_a: Vec3, ang_a: Vec3,
                 lin_b: Vec3, ang_b: Vec3, rhs: float = 0.0,
                 lo: float = float("-inf"), hi: float = float("inf"),
                 cfm: float = 0.0, friction_of: "Row" = None,
                 friction_coeff: float = 0.0, joint=None):
        self.body_a = body_a
        self.body_b = body_b
        self.lin_a = lin_a
        self.ang_a = ang_a
        self.lin_b = lin_b
        self.ang_b = ang_b
        self.rhs = rhs
        self.cfm = cfm
        self.lo = lo
        self.hi = hi
        self.impulse = 0.0
        self.friction_of = friction_of
        self.friction_coeff = friction_coeff
        self.joint = joint
        self.inv_k = self._effective_mass_inv()

    def _effective_mass_inv(self) -> float:
        k = self.cfm
        a, b = self.body_a, self.body_b
        if a is not None and not a.is_static:
            k += a.inv_mass * self.lin_a.length_squared()
            k += self.ang_a.dot(a.inv_inertia_world * self.ang_a)
        if b is not None and not b.is_static:
            k += b.inv_mass * self.lin_b.length_squared()
            k += self.ang_b.dot(b.inv_inertia_world * self.ang_b)
        if k < 1e-12:
            return 0.0
        return 1.0 / k

    def relative_velocity(self) -> float:
        v = 0.0
        a, b = self.body_a, self.body_b
        if a is not None:
            v += self.lin_a.dot(a.linear_velocity)
            v += self.ang_a.dot(a.angular_velocity)
        if b is not None:
            v += self.lin_b.dot(b.linear_velocity)
            v += self.ang_b.dot(b.angular_velocity)
        return v

    def apply_impulse(self, d_lambda: float):
        a, b = self.body_a, self.body_b
        if a is not None and not a.is_static:
            a.linear_velocity = a.linear_velocity + (
                self.lin_a * (d_lambda * a.inv_mass))
            a.angular_velocity = a.angular_velocity + (
                a.inv_inertia_world * (self.ang_a * d_lambda))
        if b is not None and not b.is_static:
            b.linear_velocity = b.linear_velocity + (
                self.lin_b * (d_lambda * b.inv_mass))
            b.angular_velocity = b.angular_velocity + (
                b.inv_inertia_world * (self.ang_b * d_lambda))

    def warm_start(self, impulse: float):
        """Seed the accumulated impulse from the previous step's value."""
        self.impulse = impulse
        if impulse != 0.0:
            self.apply_impulse(impulse)

    def solve_once(self):
        if self.inv_k == 0.0:
            return 0.0
        lo, hi = self.lo, self.hi
        if self.friction_of is not None:
            bound = self.friction_coeff * max(0.0, self.friction_of.impulse)
            lo, hi = -bound, bound
        d = (self.rhs - self.relative_velocity()
             - self.cfm * self.impulse) * self.inv_k
        new_impulse = min(max(self.impulse + d, lo), hi)
        d = new_impulse - self.impulse
        self.impulse = new_impulse
        if d != 0.0:
            self.apply_impulse(d)
        return d


class SolveStats:
    __slots__ = ("rows", "iterations", "row_updates", "max_delta",
                 "residual")

    def __init__(self, rows: int, iterations: int, row_updates: int,
                 max_delta: float, residual: float = 0.0):
        self.rows = rows
        self.iterations = iterations
        self.row_updates = row_updates
        self.max_delta = max_delta
        # Largest impulse change during the *final* iteration: a
        # converged island drives this toward zero, a diverging one
        # keeps it large. The step watchdog reads it as the PGS
        # non-convergence signal.
        self.residual = residual

    def __repr__(self):
        return (f"SolveStats(rows={self.rows}, iters={self.iterations},"
                f" updates={self.row_updates},"
                f" max_delta={self.max_delta:.3g},"
                f" residual={self.residual:.3g})")


def solve_island(rows, iterations: int = 20) -> SolveStats:
    """Run projected Gauss-Seidel over one island's rows.

    A fixed iteration count (no early-out) keeps the work — and thus the
    modeled instruction counts — a deterministic function of the scene,
    matching how the paper characterizes Island Processing.

    Each constraint with rows here is left holding their solved
    impulses, in row order, as its ``impulses`` tuple: what the world's
    warm-start cache, breakage and snapshots read.
    """
    rows = list(rows)
    max_delta = 0.0
    residual = 0.0
    last_iteration = iterations - 1
    for it in range(iterations):
        for row in rows:
            d = row.solve_once()
            if d < 0.0:
                d = -d
            if d > max_delta:
                max_delta = d
            if it == last_iteration and d > residual:
                residual = d
    impulses = {}
    for row in rows:
        if row.joint is not None:
            impulses.setdefault(row.joint, []).append(row.impulse)
    for joint, values in impulses.items():
        joint.impulses = tuple(values)
    return SolveStats(len(rows), iterations, iterations * len(rows),
                      max_delta, residual)
