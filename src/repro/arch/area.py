"""Area estimators for the FG-core pool (90 nm, Table 6).

Per-core areas are calibrated to the paper's pool totals: 30
desktop-class cores in ~1388 mm^2, 43 console-class cores in ~926
mm^2, 150 shader-class cores in ~591 mm^2. The pool adds a per-core
interconnect/router share and a fixed arbiter block.
"""

from __future__ import annotations

__all__ = [
    "PER_CORE_MM2",
    "PAPER_POOL_CORES",
    "area_mm2",
    "fg_pool_area",
]

PER_CORE_MM2 = {
    "desktop": 1388.0 / 30.0,
    "console": 926.0 / 43.0,
    "shader": 591.0 / 150.0,
}

PAPER_POOL_CORES = {"desktop": 30, "console": 43, "shader": 150}

# Pool uncore: per-core router/link share + arbiter block.
ROUTER_MM2_PER_CORE = 0.287
ARBITER_MM2 = 0.6


def _core_key(design: str) -> str:
    # The "limit" study point is a desktop-class core with idealized
    # control structures; area-wise it is costed as desktop.
    return "desktop" if design == "limit" else design


def area_mm2(design: str, cores: int = 1) -> float:
    """Core area only (no pool uncore)."""
    return PER_CORE_MM2[_core_key(design)] * cores


def fg_pool_area(design: str, cores: int) -> float:
    """Total FG pool area: cores + routers + arbiter."""
    return (area_mm2(design, cores)
            + ROUTER_MM2_PER_CORE * cores + ARBITER_MM2)
