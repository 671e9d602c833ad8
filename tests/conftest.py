"""Make ``src/`` importable whether or not PYTHONPATH is set, pin the
Hypothesis execution profiles, share the suite's one regeneration of
``results/``, and switch the numpy backend's row build and solve
between their two paths."""

import contextlib
import os
import sys
from unittest import mock

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

try:
    from hypothesis import settings
    from hypothesis import Verbosity
except ImportError:  # property tests are skipped without hypothesis
    settings = None

if settings is not None:
    # CI must be reproducible run-to-run: derandomize derives every
    # example from the test body itself, so a red CI run is replayable
    # locally with no seed hunting.  Locally we keep true randomness
    # for coverage, but print the failing example blob so a repro is
    # one @reproduce_failure away.
    settings.register_profile("ci", derandomize=True,
                              print_blob=True, max_examples=100)
    settings.register_profile("dev", print_blob=True,
                              verbosity=Verbosity.normal)
    settings.load_profile(
        "ci" if os.environ.get("CI") else
        os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def regen():
    """``(runs, tables)`` of the one regeneration the suite makes;
    ``tests/test_paper_shapes.py`` pins it, ``tests/test_ablation.py``
    reads the feature matrix's data from it."""
    from repro.analysis.__main__ import regenerate
    from repro.api import Session, SessionSpec

    # Leave the process-global uid counters where a busy process would:
    # touch-trace addresses derive from uids, so a regeneration that
    # read them would no longer match the pinned files.
    Session.create(SessionSpec("periodic", scale=0.02), isolate_uids=False)
    return regenerate()


@pytest.fixture(scope="session")
def pgs_path():
    """``with pgs_path(p):`` builds and solves the block's numpy-backend
    rows in C (``"native"``) or on the scalar oracle the loader falls
    back to (``"fallback"``).  Session-scoped and self-restoring, so
    Hypothesis tests can take it; tests loop or parametrise over both
    paths, so every tier-1 run covers each.  ``"native"`` fails unless
    the C library is loaded: otherwise both halves would run the
    fallback and hold the oracle to itself."""
    from repro.fastpath import solver

    @contextlib.contextmanager
    def use(path):
        if path == "native":
            status = solver.native_status()
            assert status == "native", (
                f"the native row kernels are not loaded ({status}); the "
                "'native' path would silently re-run the scalar fallback")
            yield
        else:
            assert path == "fallback", path
            with mock.patch.object(solver, "_native", lambda: None):
                yield
    return use


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite the golden fixtures under tests/fixtures/ "
             "(test_golden.py: trajectories; test_arch.py: pipeline "
             "cycle counts) instead of comparing against them")
