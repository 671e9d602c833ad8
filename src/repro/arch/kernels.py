"""Synthetic kernel traces for the pipeline model.

The FG-core study needs instruction traces with the *structure* of the
three offloaded kernels — the measured instruction mixes (Fig 9b), the
measured static footprints (Table 5), and the dependence shape that
determines ILP:

* ``narrowphase`` — one long dependence chain (feature walking on a
  contact pair): essentially serial, with a pointer load every few
  instructions and moderately biased branches.
* ``island`` — the row solver: eight independent strands (rows in
  flight), float-heavy, highly biased loop branches.
* ``cloth`` — two relaxation strands with an occasional divide/sqrt in
  the constraint projection.

Traces are generated from a fixed-seed PRNG so every run of the model
is deterministic.
"""

from __future__ import annotations

import random
from collections import namedtuple

from ..profiling.instmix import KERNEL_MIX, PHASE_MIX

__all__ = [
    "Instr",
    "make_trace",
    "kernel_trace",
    "phase_trace",
    "KERNEL_TRACE_PARAMS",
    "PHASE_TRACE_PARAMS",
]

# op: int | branch | fadd | fmul | fdiv | load | store
Instr = namedtuple("Instr", ("op", "deps", "pc", "taken"))

_CATEGORY_OPS = {
    "int_alu": "int",
    "branch": "branch",
    "float_add": "fadd",
    "float_mult": "fmul",
    "rd_port": "load",
    "wr_port": "store",
    "other": "int",
}

#: Static branch sites per generated trace, and the trace generator's
#: seed.
BRANCH_SITES = 16
TRACE_SEED = 0

# Dependence/branch structure per kernel (see module docstring).
KERNEL_TRACE_PARAMS = {
    "narrowphase": {"strands": 1, "bias": 0.72, "div_frac": 0.00,
                    "cross_frac": 0.05},
    "island": {"strands": 8, "bias": 0.96, "div_frac": 0.00,
               "cross_frac": 0.05},
    "cloth": {"strands": 2, "bias": 0.94, "div_frac": 0.15,
              "cross_frac": 0.05},
}

# Coarse-grain phase code running on the CG (host) cores.
PHASE_TRACE_PARAMS = {
    "broadphase": {"strands": 2, "bias": 0.85, "div_frac": 0.0,
                   "cross_frac": 0.08},
    "narrowphase": {"strands": 2, "bias": 0.78, "div_frac": 0.02,
                    "cross_frac": 0.06},
    "island_creation": {"strands": 1, "bias": 0.76, "div_frac": 0.0,
                        "cross_frac": 0.10},
    "island_processing": {"strands": 6, "bias": 0.95, "div_frac": 0.01,
                          "cross_frac": 0.05},
    "cloth": {"strands": 3, "bias": 0.93, "div_frac": 0.10,
              "cross_frac": 0.05},
}


def make_trace(mix, n, strands, bias, div_frac, cross_frac):
    """Generate ``n`` instructions with the given category mix.

    Dependences follow ``strands`` independent chains (instruction i
    joins strand ``i % strands`` and depends on that strand's previous
    instruction); ``cross_frac`` of instructions also pick up a second
    dependence on a random older instruction. Branches come from
    :data:`BRANCH_SITES` static sites, each taken with probability
    ``bias`` (mirrored per site so some sites are biased not-taken).
    """
    rng = random.Random(TRACE_SEED)
    cats = list(mix.keys())
    weights = [mix[c] for c in cats]
    site_bias = [bias if i % 4 else 1.0 - bias
                 for i in range(BRANCH_SITES)]
    trace = []
    last = [None] * max(1, strands)
    for i in range(n):
        cat = rng.choices(cats, weights)[0]
        op = _CATEGORY_OPS[cat]
        if op == "fmul" and div_frac and rng.random() < div_frac:
            op = "fdiv"
        strand = i % len(last)
        deps = []
        if last[strand] is not None:
            deps.append(last[strand])
        if i > 4 and rng.random() < cross_frac:
            other = rng.randrange(max(0, i - 64), i)
            if other not in deps:
                deps.append(other)
        pc, taken = 0, None
        if op == "branch":
            site = rng.randrange(BRANCH_SITES)
            pc = 0x1000 + site * 4
            taken = rng.random() < site_bias[site]
        trace.append(Instr(op, tuple(deps), pc, taken))
        # Only value-producing ALU/FP ops extend the strand's critical
        # chain; loads, stores and branches hang off it (addresses and
        # conditions are known early), which is what gives the kernels
        # their measured ILP.
        if op in ("int", "fadd", "fmul", "fdiv"):
            last[strand] = i
    return trace


def kernel_trace(kernel: str, n: int):
    params = KERNEL_TRACE_PARAMS[kernel]
    return make_trace(KERNEL_MIX[kernel], n=n, **params)


def phase_trace(phase: str, n: int):
    params = PHASE_TRACE_PARAMS[phase]
    return make_trace(PHASE_MIX[phase], n=n, **params)
