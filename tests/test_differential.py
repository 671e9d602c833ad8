"""Differential oracle: backend="numpy" must be bit-identical to scalar.

The scalar pipeline is the reference implementation; every fastpath
kernel claims to be a pure restatement of it.  This harness holds the
kernels to that claim: each Table 3 workload is stepped on both
backends and the trajectories must agree to the last bit
(``trajectory_divergence == 0.0``, not merely "close").  So must every
frame's ``FrameReport`` — the counters, task costs and memory-touch
trace the architecture model and the benchmark's per-layer counters
read — and the per-island solver residuals, in island order.  The
numpy side runs once per packed-solve path (the C kernel and the
scalar fallback), so both are held to the oracle in every run.
Bit-identity is what keeps the resilience layer's divergence detection
meaningful — a tolerance here would become an undetectable drift budget
there.
"""

import os

import pytest

from repro.api import Session, SessionSpec
from repro.engine.recorder import TrajectoryRecorder, trajectory_divergence
from repro.fastpath.batch import BatchWorld
from repro.profiling import ISLAND_SWEEPS
from repro.workloads.benchmarks import BENCHMARKS

# Small scale keeps the eight triple runs affordable; 60 frames is long
# enough for cannons, explosion schedules and sleep/wake transitions in
# every workload to fire (see the drivers in repro.workloads).
SCALE = float(os.environ.get("REPRO_DIFF_SCALE", "0.03"))
FRAMES = int(os.environ.get("REPRO_DIFF_FRAMES", "60"))


def _run(name, backend, frames=FRAMES, scale=SCALE, seed=0):
    """``(recorder, world, reports, cloths)`` of one recorded run, the
    reports as :func:`_report_key` data.  The recorder reads only
    bodies, so ``cloths`` holds every cloth's vertex bytes (positions,
    then previous positions) after every frame."""
    world, driver = BENCHMARKS[name].build(scale=scale, seed=seed,
                                           backend=backend)
    assert world.backend == backend
    rec = TrajectoryRecorder(world)
    rec.snapshot()
    reports = []
    cloths = []
    for _ in range(frames):
        reports.append(world.step_frame(driver))
        rec.snapshot()
        cloths.append([(c.positions.tobytes(), c.prev_positions.tobytes())
                       for c in world.cloths])
    return rec, world, [_report_key(world, r) for r in reports], cloths


# Body and geom uids are allocated from process-global counters, so two
# separately built worlds get disjoint uid ranges; compare them as
# indices into the world's (append-only) body and geom lists.
def _uid_index(items):
    return {item.uid: i for i, item in enumerate(items)}


def _report_key(world, report):
    """One frame's report as plain data, uids renumbered to indices."""
    body = _uid_index(world.bodies)
    geom = _uid_index(world.geoms)
    steps = []
    for step in report.step_touches:
        touches = []
        for phase, group in step:
            if group.kind == ISLAND_SWEEPS:
                row_counts, uid_lists = group.ids
                ids = (tuple(row_counts),
                       tuple(tuple(body[u] for u in uids)
                             for uids in uid_lists))
            elif group.kind in ("geom", "endpoint"):
                ids = tuple(geom[u] for u in group.ids)
            elif group.kind == "body":
                ids = tuple(body[u] for u in group.ids)
            else:
                ids = tuple(group.ids)
            touches.append((phase, group.kind, ids, group.repeat,
                            group.writes))
        steps.append(touches)
    return {"summary": report.summary(), "steps": report.steps,
            "tasks": report.tasks, "step_tasks": report.step_tasks,
            "step_touches": steps}


def _island_key(world):
    index = _uid_index(world.bodies)
    return [(res, tuple(index[u] for u in uids))
            for res, uids in world.last_island_residuals]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_backend_trajectories_bit_identical(name, pgs_path):
    rec_s, world_s, reports_s, cloths_s = _run(name, "scalar")
    for path in ("native", "fallback"):
        with pgs_path(path):
            rec_n, world_n, reports_n, cloths_n = _run(name, "numpy")
        div = trajectory_divergence(rec_s, rec_n)
        assert div == 0.0, f"{name} ({path}): backends diverged by {div}"
        _assert_residuals_match(world_s, world_n)
        _assert_reports_match(reports_s, reports_n, f"{name} ({path})")
        for frame, (want, got) in enumerate(zip(cloths_s, cloths_n)):
            assert got == want, (
                f"{name} ({path}): frame {frame} cloth vertices differ")


def _assert_residuals_match(world_s, world_n):
    # The watchdog's divergence detection keys off solver residuals, so
    # those must survive the backend swap bit-for-bit too, island by
    # island in the order the islands were built.
    assert _island_key(world_s) == _island_key(world_n)


def _assert_reports_match(reports_s, reports_n, label):
    assert len(reports_s) == len(reports_n), label
    for frame, (want, got) in enumerate(zip(reports_s, reports_n)):
        for field in want:
            assert got[field] == want[field], (
                f"{label}: frame {frame} report {field} differs")


def _build_fleet(n, backend="numpy", scale=0.03):
    worlds, drivers = [], []
    for seed in range(n):
        world, driver = BENCHMARKS["ragdoll"].build(scale=scale, seed=seed,
                                                    backend=backend)
        worlds.append(world)
        drivers.append(driver)
    return worlds, drivers


def _record_batch(batch, drivers, frames):
    recs = [TrajectoryRecorder(w) for w in batch.worlds]
    for rec in recs:
        rec.snapshot()
    for _ in range(frames):
        batch.step_frame(drivers)
        for rec in recs:
            rec.snapshot()
    return recs


def test_batch_world_matches_solo_stepping(pgs_path):
    """Stepping N worlds in lockstep must not change any of them, on
    either path."""
    frames = 12
    solo = []
    for seed in range(4):
        world, driver = BENCHMARKS["ragdoll"].build(scale=0.03, seed=seed,
                                                    backend="numpy")
        solo.append(TrajectoryRecorder(world).record(frames, driver))

    for path in ("native", "fallback"):
        worlds, drivers = _build_fleet(4)
        with pgs_path(path):
            recs = _record_batch(BatchWorld(worlds), drivers, frames)
        for seed, (a, b) in enumerate(zip(solo, recs)):
            div = trajectory_divergence(a, b)
            assert div == 0.0, (
                f"world seed={seed} ({path}) diverged by {div}")


def test_restored_oversized_warm_start_entries_match_the_oracle(pgs_path):
    """A checkpoint is client input, and its warm-start cache may hold
    more impulses per contact than a contact has rows.  The oracle's
    warm start zips a contact's rows with its entry and never reads the
    extras; the C row build must ignore them too, not read its contact
    table shifted."""
    digests = set()
    for backend, path in (("scalar", "fallback"), ("numpy", "native"),
                          ("numpy", "fallback")):
        with pgs_path(path):
            session = Session.create(SessionSpec(
                "breakable", scale=0.03, seed=0, backend=backend))
            session.step(4)
            payload = session.checkpoint()
            cache = payload["snapshot"]["impulse_cache"]
            assert cache, "no warm-start entries to pad"
            for entry in cache:
                entry[1] += [1.0e3, -7.0, 2.5]
            restored = Session.restore(payload)
            restored.step(4)
            digests.add(restored.state_digest())
    assert len(digests) == 1


def test_batch_world_rejects_mixed_fleet():
    """``BatchWorld``'s worlds share one ``substeps_per_frame`` (the
    lockstep frame); each keeps its own kernel set."""
    worlds = []
    for backend in ("scalar", "numpy"):
        world, _driver = BENCHMARKS["ragdoll"].build(scale=0.03, seed=0,
                                                     backend=backend)
        worlds.append(world)
    assert len(BatchWorld(worlds)) == 2
    worlds[1].config.substeps_per_frame += 1
    with pytest.raises(ValueError):
        BatchWorld(worlds)
    with pytest.raises(ValueError):
        BatchWorld([])
