"""Operation-level instruction-cost model.

The paper measured real SPARC instruction counts per phase (Table 3);
we substitute a mechanistic model: each counted engine operation costs a
fixed number of abstract instructions, chosen from the arithmetic each
operation actually performs in an optimized native engine. Only the
*relative* phase loads matter for the architecture conclusions; absolute
counts get calibrated against Table 3 by `repro.analysis.calibrate` in a
later pass.
"""

from __future__ import annotations

# (phase, counter) -> instructions per counted operation.
INSTRUCTION_WEIGHTS = {
    ("broadphase", "geoms"): 40,        # AABB refresh
    ("broadphase", "swaps"): 12,        # endpoint sort exchange
    ("broadphase", "tests"): 18,        # interval + y/z overlap test
    ("broadphase", "pairs"): 14,        # pair emission/bookkeeping
    ("narrowphase", "tests"): 220,      # transform + shape dispatch
    ("narrowphase", "contacts"): 160,   # manifold point generation
    ("island_creation", "bodies"): 22,  # union-find find()
    ("island_creation", "unions"): 35,
    ("island_creation", "islands"): 60, # island assembly
    ("island_processing", "rows"): 190,     # Jacobian row construction
    ("island_processing", "row_updates"): 85,  # one PGS row relaxation
    ("island_processing", "integrations"): 210,  # semi-implicit Euler
    ("cloth", "vertices"): 45,          # Verlet update + ground check
    ("cloth", "constraint_updates"): 28,
    ("cloth", "projections"): 90,       # collision pushout
}


def phase_instructions(phase: str, counters) -> float:
    total = 0.0
    for (p, counter), weight in INSTRUCTION_WEIGHTS.items():
        if p == phase:
            total += counters.get(counter) * weight
    return total


def task_cost_narrowphase(contacts: int) -> float:
    """Modeled instructions for one object-pair narrowphase task."""
    return (INSTRUCTION_WEIGHTS[("narrowphase", "tests")]
            + contacts * INSTRUCTION_WEIGHTS[("narrowphase", "contacts")])


def task_cost_island(rows: int, row_updates: int, bodies: int) -> float:
    """Modeled instructions for solving one island."""
    w = INSTRUCTION_WEIGHTS
    return (rows * w[("island_processing", "rows")]
            + row_updates * w[("island_processing", "row_updates")]
            + bodies * w[("island_processing", "integrations")])


def task_cost_cloth(vertices: int, constraint_updates: int,
                    projections: int) -> float:
    """Modeled instructions for one cloth object's step."""
    w = INSTRUCTION_WEIGHTS
    return (vertices * w[("cloth", "vertices")]
            + constraint_updates * w[("cloth", "constraint_updates")]
            + projections * w[("cloth", "projections")])
