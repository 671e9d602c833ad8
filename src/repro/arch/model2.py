"""The paper's Section 8.3 analytical feasibility model ("model 2").

A back-of-envelope check that per-frame state transfer over a
peripheral link does not eat the frame budget: each frame the CG side
ships updated object transforms, particle states, and cloth vertices
across the link. The paper's worked example — 1000 objects, 10000
particles, 5000 cloth vertices over PCIe — lands around 60 us, a few
percent of a 30 FPS frame.
"""

from __future__ import annotations

from .interconnect import PCIE
from .machine import FPS_TARGET

__all__ = [
    "BYTES_PER_OBJECT",
    "BYTES_PER_PARTICLE",
    "BYTES_PER_CLOTH_VERTEX",
    "PCIE_LATENCY_SECONDS",
    "frame_bytes",
    "transfer_seconds",
    "paper_example_seconds",
    "frame_budget_fraction",
]

# Per-entity wire formats: position + orientation (+ flags) for rigid
# objects, position+velocity half-floats for particles, position for
# cloth vertices.
BYTES_PER_OBJECT = 60
BYTES_PER_PARTICLE = 8
BYTES_PER_CLOTH_VERTEX = 12

# One-way setup latency of a bulk DMA over the link; the bandwidth is
# the link's own, ``interconnect.PCIE.bandwidth_bytes``. Table 7 prices
# the same link at 2,400 cycles per round trip instead (EXPERIMENTS.md,
# Known divergence 6).
PCIE_LATENCY_SECONDS = 3e-6


def frame_bytes(objects: int, particles: int = 0,
                cloth_vertices: int = 0) -> float:
    return (objects * BYTES_PER_OBJECT
            + particles * BYTES_PER_PARTICLE
            + cloth_vertices * BYTES_PER_CLOTH_VERTEX)


def transfer_seconds(objects: int, particles: int = 0,
                     cloth_vertices: int = 0) -> float:
    nbytes = frame_bytes(objects, particles, cloth_vertices)
    return PCIE_LATENCY_SECONDS + nbytes / PCIE.bandwidth_bytes


def paper_example_seconds() -> float:
    """The Section 8.3 worked example (~60 us)."""
    return transfer_seconds(1000, particles=10000, cloth_vertices=5000)


def frame_budget_fraction(objects: int, particles: int = 0,
                          cloth_vertices: int = 0) -> float:
    """Share of a :data:`~repro.arch.machine.FPS_TARGET` frame the
    transfer takes."""
    return (transfer_seconds(objects, particles, cloth_vertices)
            * FPS_TARGET)
