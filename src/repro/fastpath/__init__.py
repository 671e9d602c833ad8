"""Struct-of-arrays fast path for the engine hot loops.

``repro.fastpath`` vectorizes the four profiled hot loops — the SAP
interval sweep, the sphere/box narrowphase pair tests, PGS row
iteration, and Jakobsen cloth relaxation — behind the existing APIs.
A world binds one kernel set at construction::

    World(backend="numpy")     # repro.fastpath.kernels (SoA)
    World(backend="scalar")    # repro.engine.scalar, the oracle (default)

Backend resolution, in priority order:

1. the explicit ``backend=`` argument,
2. the ``REPRO_BACKEND`` environment variable,
3. ``"scalar"``.

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


from .solver import solve_island_soa, solve_islands  # noqa: E402
from .batch import BatchWorld, cohort_key  # noqa: E402

__all__ = [
    "BACKENDS",
    "BatchWorld",
    "cohort_key",
    "resolve_backend",
    "solve_island_soa",
    "solve_islands",
]
