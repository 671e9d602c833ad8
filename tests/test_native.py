"""The native kernels' loader: cache, rebuild, races and fallback.

``repro.fastpath.solver`` compiles ``pgs.c`` at first use into
``$XDG_CACHE_HOME/repro`` and, before use, checks its row builders and
its sweep on a canary scene, its cloth relaxation on a small pinned
cloth and its box/box test on three box pairs.
Each test points the cache at its own empty directory and clears the
loader's memo on both sides, so the rest of the suite keeps the kernel
the process loaded first.
"""

import os
import shutil
import subprocess
import sys

import pytest

from repro.api import Session, SessionSpec
from repro.fastpath import solver

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH")


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty kernel cache, and a loader that has not looked yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    solver._load.cache_clear()
    yield tmp_path / "repro"
    solver._load.cache_clear()


def _libraries(cache):
    return sorted(p.name for p in cache.iterdir())


@needs_cc
def test_corrupt_cached_library_is_rebuilt(cold_cache):
    cold_cache.mkdir(parents=True)
    path = solver._library_path()
    with open(path, "wb") as fh:
        fh.write(b"not a shared object")
    assert solver.native_status() == "native"
    with open(path, "rb") as fh:
        assert fh.read(4) == b"\x7fELF"


@needs_cc
def test_changed_source_compiles_a_new_library(cold_cache, tmp_path,
                                               monkeypatch):
    assert solver.native_status() == "native"
    edited = tmp_path / "pgs.c"
    edited.write_bytes(solver._SOURCE.read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(solver, "_SOURCE", edited)
    solver._load.cache_clear()
    assert solver.native_status() == "native"
    assert len(_libraries(cold_cache)) == 2


@needs_cc
@pytest.mark.parametrize("original, mutant", [
    (b"/ len * 0.5;", b"/ len * 0.4999;"),
    (b"best_overlap, 16);", b"best_overlap * 0.5, 16);"),
], ids=["cloth_relax", "box_box"])
def test_mutated_kernel_is_refused(cold_cache, tmp_path, monkeypatch,
                                   original, mutant):
    """A library whose cloth or box/box kernel no longer matches the
    oracle compiles and loads, but the canary refuses it."""
    source = solver._SOURCE.read_bytes()
    assert source.count(original) == 1
    edited = tmp_path / "pgs.c"
    edited.write_bytes(source.replace(original, mutant))
    monkeypatch.setattr(solver, "_SOURCE", edited)
    assert solver.native_status().startswith("fallback: canary")
    assert len(_libraries(cold_cache)) == 1


def test_canary_boxes_cover_face_edge_and_separated():
    from repro.collision.narrowphase import _box_box

    face, edge, apart = [_box_box(a, b) for a, b in solver._canary_boxes()]
    assert face and all(c.feature < 8 for c in face)
    assert [c.feature for c in edge] == [16]
    assert apart == []


@needs_cc
def test_processes_racing_on_a_cold_cache_both_load(cold_cache):
    env = dict(os.environ, XDG_CACHE_HOME=str(cold_cache.parent),
               PYTHONPATH=SRC)
    code = ("from repro.fastpath import solver; "
            "print(solver.native_status())")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert outs == ["native", "native"]
    # Each compiled to a private temp file and renamed it into place:
    # one library, no leftovers.
    assert len(_libraries(cold_cache)) == 1


def _digest(backend):
    session = Session.create(SessionSpec("ragdoll", scale=0.03, seed=0,
                                         backend=backend))
    session.step(10)
    return session.state_digest()


@needs_cc
def test_canary_mismatch_falls_back_to_the_oracle(cold_cache,
                                                  monkeypatch, caplog):
    """A library that fails the canary is not used: row build and
    solve both run the oracle."""
    monkeypatch.setattr(solver, "_canary_agrees", lambda lib: False)
    with caplog.at_level("WARNING", logger="repro.fastpath"):
        assert solver.native_status() == "fallback: canary"
        assert _digest("numpy") == _digest("scalar")
    assert ["(canary)" in r.getMessage() for r in caplog.records] == [True]


def test_missing_compiler_falls_back(cold_cache, monkeypatch):
    monkeypatch.setenv("PATH", "")
    assert solver.native_status().startswith("fallback: ")
    assert solver._native() is None


@needs_cc
def test_failed_compile_falls_back(cold_cache, tmp_path, monkeypatch):
    broken = tmp_path / "pgs.c"
    broken.write_bytes(b"this is not C\n")
    monkeypatch.setattr(solver, "_SOURCE", broken)
    assert solver.native_status().startswith("fallback: cc failed: ")
    assert _libraries(cold_cache) == []
