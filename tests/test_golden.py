"""Golden-trajectory regression fixtures.

Three Table 3 workloads have their full state trajectories checked in
under ``tests/fixtures/``.  The tests replay each workload under the
session's active backend (``REPRO_BACKEND``; the CI matrix runs both)
and on the numpy backend once per packed-solve path (the C kernel and
the scalar fallback), and demand *exact* equality with the fixture —
JSON round-trips doubles through ``repr``, so equality here is
bit-equality.  Any change to stepping arithmetic, on either backend,
trips these.

Regenerate deliberately with::

    python -m pytest tests/test_golden.py --regen-golden
"""

import json
import os

import pytest

from repro.api import Session, SessionSpec
from repro.engine.recorder import TrajectoryRecorder
from repro.workloads.benchmarks import BENCHMARKS

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
GOLDEN = ("periodic", "ragdoll", "continuous")
FRAMES = 8
SCALE = 0.03


def _record(name, backend=None):
    world, driver = BENCHMARKS[name].build(scale=SCALE, seed=0,
                                           backend=backend)
    return TrajectoryRecorder(world).record(FRAMES, driver)


def _normalized(trajectory):
    """Rebase body uids on the recording's first body.

    Uids come from a process-global counter, so their absolute values
    depend on how many bodies earlier tests created; the offsets
    within one recording are deterministic.
    """
    if not trajectory or not trajectory[0]:
        return trajectory
    base = trajectory[0][0][0]
    return [[[state[0] - base] + list(state[1:]) for state in frame]
            for frame in trajectory]


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_trajectory(name, request):
    path = os.path.join(FIXTURES, f"{name}.json")
    rec = _record(name)
    if request.config.getoption("--regen-golden"):
        os.makedirs(FIXTURES, exist_ok=True)
        rec.save_json(path)
        pytest.skip(f"regenerated {path}")
    assert os.path.exists(path), (
        f"missing fixture {path}; run pytest --regen-golden")
    _assert_matches_fixture(name, rec)


@pytest.mark.parametrize("name", GOLDEN)
@pytest.mark.parametrize("path", ("native", "fallback"))
def test_golden_trajectory_numpy(path, name, pgs_path):
    """The numpy backend reaches the packed solve whatever
    ``REPRO_BACKEND`` says, so the scalar CI job checks both its paths
    against the fixtures too."""
    with pgs_path(path):
        rec = _record(name, backend="numpy")
    _assert_matches_fixture(name, rec)


def _assert_matches_fixture(name, rec):
    golden = TrajectoryRecorder.load_json(
        os.path.join(FIXTURES, f"{name}.json"))
    got = _normalized([[list(state) for state in frame]
                       for frame in rec.frames])
    assert golden["frames"] == len(rec.frames)
    assert got == _normalized(golden["trajectory"]), (
        f"{name}: trajectory deviates from golden fixture; if the "
        f"change is intended, rerun with --regen-golden")


# ``Session.state_digest()`` after 60 frames at scale 0.05, seed 0,
# recorded at the commit *before* island processing became one pass per
# world (PR 18): both backends share ``World._finish_islands``, so only
# a pin against the island-by-island loop can see an ordering bug in
# the hoist.  ``auto_sleep`` exercises the deferred sleep updates, the
# default config the CCD sweeps over several islands.
ISLAND_ORDER_CONFIGS = {"auto_sleep": {"auto_sleep": True}, "default": {}}
with open(os.path.join(FIXTURES, "island_order_digests.json")) as _fh:
    ISLAND_ORDER_DIGESTS = json.load(_fh)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("config", sorted(ISLAND_ORDER_CONFIGS))
def test_island_order_digest(config, name):
    session = Session.create(SessionSpec(
        name, scale=0.05, seed=0, config=ISLAND_ORDER_CONFIGS[config]))
    session.step(60)
    assert session.state_digest() == ISLAND_ORDER_DIGESTS[config][name]
