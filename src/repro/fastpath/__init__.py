"""Struct-of-arrays fast path for the engine hot loops.

``repro.fastpath`` vectorizes the four profiled hot loops — the SAP
interval sweep, the sphere/box narrowphase pair tests, PGS row
iteration, and Jakobsen cloth relaxation — behind the existing APIs.
A world binds one kernel set at construction::

    World(backend="numpy")     # repro.fastpath.kernels (SoA)
    World(backend="scalar")    # repro.engine.scalar, the oracle (default)

Backend resolution, in priority order:

1. the explicit ``backend=`` argument,
2. the innermost active :func:`default_backend` override,
3. the ``REPRO_BACKEND`` environment variable,
4. ``"scalar"``.

The scalar implementations are retained verbatim as the correctness
and ablation oracle: every kernel here restates the same arithmetic in
the same operation order, and ``tests/test_differential.py`` holds the
two backends bit-identical over the Table 3 workloads.
"""

from __future__ import annotations

import contextlib
import os

BACKENDS = ("scalar", "numpy")

# pax: ignore[PAX107]: harness-scoped backend override stack; pushed/
# popped only by the default_backend() context manager around world
# construction, never read inside the step path.
_override_stack = []


def resolve_backend(backend=None) -> str:
    """Resolve a backend name (see module docstring for precedence)."""
    if backend is None and _override_stack:
        backend = _override_stack[-1]
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND") or "scalar"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


@contextlib.contextmanager
def default_backend(backend: str):
    """Override the default backend for ``World()`` calls in scope.

    Lets harnesses (benchmarks, the differential tests) retarget
    workload builders that construct their own worlds without
    threading a parameter through every builder.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    _override_stack.append(backend)
    try:
        yield backend
    finally:
        _override_stack.pop()


from .solver import solve_island_soa, solve_islands  # noqa: E402
from .batch import BatchWorld, cohort_key  # noqa: E402

__all__ = [
    "BACKENDS",
    "BatchWorld",
    "cohort_key",
    "default_backend",
    "resolve_backend",
    "solve_island_soa",
    "solve_islands",
]
