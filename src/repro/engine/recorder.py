"""Trajectory capture and the determinism checker.

The paper verified its benchmarks visually; headless, we record body
trajectories (exportable to JSON for any external viewer) and prove
runs are reproducible: the engine is written so that two builds of the
same seeded scene produce bit-identical trajectories.
"""

from __future__ import annotations

import json

import numpy as np


class TrajectoryRecorder:
    """Records per-frame positions/orientations of a world's bodies."""

    def __init__(self, world):
        self.world = world
        self.frames = []  # list of per-body state lists

    def snapshot(self):
        frame = []
        for body in self.world.bodies:
            p, q = body.position, body.orientation
            frame.append((
                body.uid, 1 if body.enabled else 0,
                p.x, p.y, p.z, q.w, q.x, q.y, q.z,
            ))
        self.frames.append(frame)
        return frame

    def record(self, frames: int, driver=None) -> "TrajectoryRecorder":
        """Simulate ``frames`` rendered frames, snapshotting each.

        ``driver`` (from a benchmark's ``build``) is called once per
        sub-step before stepping — cannons, throttles, explosion
        schedules all live there.
        """
        self.snapshot()  # initial state
        for _ in range(frames):
            self.world.step_frame(driver)
            self.snapshot()
        return self

    def positions_array(self) -> np.ndarray:
        """(frames, bodies, 3) position tensor.

        Bodies are append-only, so each frame's body list is a prefix of
        the final one; bodies spawned mid-recording (cannon shells,
        debris) backfill earlier frames with their spawn position."""
        if not self.frames:
            return np.zeros((0, 0, 3), dtype=np.float64)
        n_frames = len(self.frames)
        n_bodies = len(self.frames[-1])
        arr = np.zeros((n_frames, n_bodies, 3), dtype=np.float64)
        first_seen = [0] * n_bodies
        for fi, frame in enumerate(self.frames):
            for bi, state in enumerate(frame):
                arr[fi, bi] = state[2:5]
        for fi, frame in enumerate(self.frames):
            for bi in range(len(frame), n_bodies):
                first_seen[bi] = max(first_seen[bi], fi + 1)
        for bi in range(n_bodies):
            if first_seen[bi] > 0:
                arr[:first_seen[bi], bi] = arr[first_seen[bi], bi]
        return arr

    def save_json(self, path: str):
        payload = {
            "frames": len(self.frames),
            "bodies": len(self.frames[0]) if self.frames else 0,
            "fields": ["uid", "enabled", "x", "y", "z",
                       "qw", "qx", "qy", "qz"],
            "trajectory": [
                [list(state) for state in frame] for frame in self.frames
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @staticmethod
    def load_json(path: str) -> dict:
        with open(path) as fh:
            return json.load(fh)


def trajectory_divergence(rec_a: TrajectoryRecorder,
                          rec_b: TrajectoryRecorder) -> float:
    """Max absolute position difference between two recordings."""
    a = rec_a.positions_array()
    b = rec_b.positions_array()
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max())


def assert_deterministic(build, frames: int) -> float:
    """Run ``build()`` -> (world, driver) twice; assert bit-identical
    trajectories and return the (zero) max divergence."""
    recordings = []
    for _ in range(2):
        world, driver = build()
        recordings.append(TrajectoryRecorder(world).record(frames, driver))
    divergence = trajectory_divergence(*recordings)
    if divergence != 0.0:
        raise AssertionError(
            f"simulation is not deterministic: max divergence "
            f"{divergence!r} over {frames} frames")
    return divergence
