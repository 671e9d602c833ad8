#!/usr/bin/env python3
"""Batch throughput: many small worlds through one packed solve.

Builds N independent copies of the ragdoll workload and steps them
three ways — scalar one-by-one, backend="numpy" one-by-one, and as a
single :class:`repro.fastpath.BatchWorld` — then prints per-world frame
times.  The batch path packs every world's constraint islands into one
solve call per sub-step, the way a ``repro.serve`` shard steps a
cohort; the packed rows go through the same C sweep as one world's, so
packing buys lockstep stepping, not cheaper rows.

Run from the repo root::

    PYTHONPATH=src python examples/batch_throughput.py [N]
"""

import sys
import time

from repro.engine.recorder import TrajectoryRecorder, trajectory_divergence
from repro.fastpath import BatchWorld
from repro.workloads import BENCHMARKS

FRAMES = 10
SCALE = 0.05


def build_fleet(n, backend):
    worlds, drivers = [], []
    for seed in range(n):
        world, driver = BENCHMARKS["ragdoll"].build(scale=SCALE, seed=seed,
                                                    backend=backend)
        worlds.append(world)
        drivers.append(driver)
    return worlds, drivers


def time_solo(n, backend):
    worlds, drivers = build_fleet(n, backend)
    t0 = time.process_time()
    for _ in range(FRAMES):
        for world, drive in zip(worlds, drivers):
            world.step_frame(drive)
    return time.process_time() - t0, worlds


def time_batch(n):
    worlds, drivers = build_fleet(n, "numpy")
    batch = BatchWorld(worlds)
    t0 = time.process_time()
    for _ in range(FRAMES):
        batch.step_frame(drivers)
    return time.process_time() - t0, worlds


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    print(f"{n} ragdoll worlds x {FRAMES} frames (scale={SCALE})\n")

    t_scalar, _ = time_solo(n, "scalar")
    t_numpy, solo_worlds = time_solo(n, "numpy")
    t_batch, batch_worlds = time_batch(n)

    per = 1000.0 / (FRAMES * n)
    print(f"scalar, one by one : {t_scalar * per:8.3f} ms/world-frame")
    print(f"numpy,  one by one : {t_numpy * per:8.3f} ms/world-frame"
          f"  (x{t_scalar / t_numpy:.2f})")
    print(f"numpy,  BatchWorld : {t_batch * per:8.3f} ms/world-frame"
          f"  (x{t_scalar / t_batch:.2f})")

    # Packing is free correctness-wise: every world matches its solo run.
    rec_a = TrajectoryRecorder(solo_worlds[0])
    rec_b = TrajectoryRecorder(batch_worlds[0])
    rec_a.snapshot()
    rec_b.snapshot()
    div = trajectory_divergence(rec_a, rec_b)
    print(f"\nbatch vs solo divergence (world 0): {div}")


if __name__ == "__main__":
    main()
