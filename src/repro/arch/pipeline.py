"""Out-of-order window/ROB pipeline model for FG-core IPC.

A deliberately small cycle-driven model: fetch up to ``width``
instructions per cycle into a ROB of ``window`` entries, issue when
operands are ready and a function unit is free (oldest-first; in-order
cores stall at the first unready instruction), retire in order. A
mispredicted branch stalls fetch until it resolves — wrong-path
execution is not modelled, only the fetch bubble, which is the
first-order cost.

Design points follow the paper's Fig 10 study: a desktop-class 4-wide
OoO core, a console-class 2-wide OoO core, a shader-style single-issue
in-order core, and a 16-wide "limit" core with a perfect predictor.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import kernels
from .branch import make_predictor

__all__ = [
    "CoreDesign",
    "DESIGNS",
    "LATENCY",
    "simulate_ipc",
    "kernel_ipc",
    "phase_ipc",
]

LATENCY = {
    "int": 1,
    "branch": 1,
    "fadd": 3,
    "fmul": 4,
    "fdiv": 12,
    "load": 2,
    "store": 1,
}

_UNIT = {
    "int": "int",
    "branch": "int",
    "fadd": "fp",
    "fmul": "fp",
    "fdiv": "fp",
    "load": "mem",
    "store": "mem",
}


class CoreDesign:
    __slots__ = ("name", "width", "window", "in_order",
                 "int_units", "fp_units", "mem_ports", "predictor")

    def __init__(self, name, width, window, in_order,
                 int_units, fp_units, mem_ports, predictor):
        self.name = name
        self.width = width
        self.window = window
        self.in_order = in_order
        self.int_units = int_units
        self.fp_units = fp_units
        self.mem_ports = mem_ports
        self.predictor = predictor

    def __repr__(self):
        kind = "in-order" if self.in_order else "OoO"
        return (f"CoreDesign({self.name}: {self.width}-wide {kind}, "
                f"window={self.window}, bp={self.predictor})")


DESIGNS = {
    "desktop": CoreDesign("desktop", width=4, window=64, in_order=False,
                          int_units=4, fp_units=2, mem_ports=2,
                          predictor="yags"),
    "console": CoreDesign("console", width=2, window=16, in_order=False,
                          int_units=2, fp_units=1, mem_ports=1,
                          predictor="yags"),
    "shader": CoreDesign("shader", width=1, window=4, in_order=True,
                         int_units=1, fp_units=1, mem_ports=1,
                         predictor="static"),
    "limit": CoreDesign("limit", width=16, window=512, in_order=False,
                        int_units=16, fp_units=16, mem_ports=16,
                        predictor="perfect"),
}


def simulate_ipc(trace, design: CoreDesign, detail: bool = False):
    """Replay ``trace`` through the pipeline; returns IPC (or a stats
    dict when ``detail`` is set)."""
    n = len(trace)
    perfect = design.predictor == "perfect"
    predictor = None if perfect else make_predictor(design.predictor)
    width, in_order = design.width, design.in_order
    budget = {"int": design.int_units, "fp": design.fp_units,
              "mem": design.mem_ports}
    decoded = [(i.deps, _UNIT[i.op], LATENCY[i.op]) for i in trace]

    # Fetch and retire are in program order, so the ROB is the index
    # range [retire_ptr, fetch_ptr); ``pending`` is its unissued part,
    # oldest first. ``done`` is inf until issue: one test for readiness.
    done = [math.inf] * n   # cycle the result is available
    pending = []
    retire_ptr = fetch_ptr = 0
    stall_until = -1        # fetch blocked until this instr resolves
    cycle = 0
    mispredicts = 0

    while retire_ptr < n:
        # Retire (frees ROB entries for this cycle's fetch).
        limit = min(retire_ptr + width, fetch_ptr)
        while retire_ptr < limit and done[retire_ptr] <= cycle:
            retire_ptr += 1

        # Issue.
        used = {"int": 0, "fp": 0, "mem": 0}
        slots = width
        waiting = []
        stop = len(pending)     # entries from here on were not looked at
        for pos, idx in enumerate(pending):
            if slots == 0:
                stop = pos
                break
            deps, unit, latency = decoded[idx]
            for dep in deps:
                if done[dep] > cycle:
                    ready = False
                    break
            else:
                ready = used[unit] < budget[unit]
            if ready:
                done[idx] = cycle + latency
                used[unit] += 1
                slots -= 1
            elif in_order:
                stop = pos
                break
            else:
                waiting.append(idx)
        pending = waiting + pending[stop:]

        # Fetch.
        if stall_until >= 0 and done[stall_until] <= cycle:
            stall_until = -1
        if stall_until < 0:
            room = design.window - (fetch_ptr - retire_ptr)
            for idx in range(fetch_ptr,
                             fetch_ptr + min(width, room, n - fetch_ptr)):
                instr = trace[idx]
                pending.append(idx)
                fetch_ptr = idx + 1
                if instr.op == "branch" and not perfect:
                    predicted = predictor.predict(instr.pc)
                    predictor.update(instr.pc, instr.taken)
                    if predicted != instr.taken:
                        mispredicts += 1
                        stall_until = idx
                        break
        cycle += 1

    ipc = n / cycle if cycle else 0.0
    if detail:
        branches = sum(1 for i in trace if i.op == "branch")
        return {
            "ipc": ipc,
            "cycles": cycle,
            "instructions": n,
            "mispredicts": mispredicts,
            "branches": branches,
            "bp_accuracy": (1.0 - mispredicts / branches
                            if branches else 1.0),
        }
    return ipc


#: Instructions in the synthetic trace behind each memoised IPC.
IPC_TRACE_LENGTH = 3000


@lru_cache(maxsize=None)
def kernel_ipc(design_name: str, kernel: str) -> float:
    """IPC of one FG kernel on one design point (memoized)."""
    design = DESIGNS[design_name]
    return simulate_ipc(kernels.kernel_trace(kernel, n=IPC_TRACE_LENGTH),
                        design)


@lru_cache(maxsize=None)
def phase_ipc(design_name: str, phase: str) -> float:
    """IPC of one pipeline phase's CG code on one design (memoized)."""
    design = DESIGNS[design_name]
    return simulate_ipc(kernels.phase_trace(phase, n=IPC_TRACE_LENGTH),
                        design)
