"""Struct-of-arrays fast path for the engine hot loops.

``repro.fastpath`` restates the profiled hot loops behind the existing
APIs.  The SAP interval sweep, the sphere/box narrowphase pair tests
and Jakobsen cloth relaxation are vectorized; the per-body force and
integrate loops run over unboxed floats.  Constraint-row setup and the
PGS sweep, whose dependency chain leaves no lanes for array code, are
C (``pgs.c``): rows are built straight into the packed buffers the
sweep reads, and the scalar row build and solver are the fallback.  A
world binds one kernel set at construction::

    World(backend="numpy")     # repro.fastpath.kernels (SoA)
    World(backend="scalar")    # repro.engine.scalar, the oracle (default)

Backend resolution, in priority order: the explicit ``backend=``
argument, the ``REPRO_BACKEND`` environment variable, ``"scalar"``.

The scalar implementations are retained verbatim as the correctness
and ablation oracle: every kernel here restates the same arithmetic in
the same operation order, and ``tests/test_differential.py`` holds the
two backends bit-identical over the Table 3 workloads.
"""

from __future__ import annotations

import os

BACKENDS = ("scalar", "numpy")


def resolve_backend(backend=None) -> str:
    """Resolve a backend name (see module docstring for precedence)."""
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND") or "scalar"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


from .solver import solve_islands  # noqa: E402

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "solve_islands",
]
