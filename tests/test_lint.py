"""PaxLint: per-rule fixtures, suppression mechanics, the
self-lint gate, and the PAX201 contract-regression demo.

Every rule gets at least one snippet that must trigger and one that
must not.  Snippets are written into a throwaway ``repro`` package
tree because the determinism rules are scoped to the simulation
packages by module path.
"""

import os
import shutil
import textwrap

import pytest

from repro.lint import RULES, lint_paths
from repro.lint.__main__ import main as lint_main

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_module(root, relpath, code):
    """Write ``code`` at ``root/relpath``, creating package inits."""
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    cur = os.path.join(root, relpath.split("/")[0])
    for part in relpath.split("/")[1:-1]:
        init = os.path.join(cur, "__init__.py")
        if not os.path.exists(init):
            open(init, "w").close()
        cur = os.path.join(cur, part)
    init = os.path.join(cur, "__init__.py")
    if not os.path.exists(init) and relpath.endswith(".py") \
            and os.path.basename(relpath) != "__init__.py":
        open(init, "w").close()
    with open(path, "w") as fh:
        fh.write(textwrap.dedent(code))
    return path


def lint_snippet(tmp_path, code, rule,
                 relpath="repro/engine/mod.py"):
    root = str(tmp_path)
    write_module(root, "repro/__init__.py", "")
    write_module(root, relpath, code)
    result = lint_paths([os.path.join(root, "repro")])
    return [f for f in result.findings if f.rule == rule]


def active(findings):
    return [f for f in findings if not f.suppressed]


# -- PAX101: unordered iteration ----------------------------------------

def test_pax101_triggers_on_set_for_loop(tmp_path):
    hits = lint_snippet(tmp_path, """\
        bodies = {1, 2, 3}
        out = []
        for b in bodies:
            out.append(b)
        """, "PAX101")
    assert len(hits) == 1 and hits[0].line == 3


def test_pax101_triggers_on_listcomp_from_set(tmp_path):
    hits = lint_snippet(tmp_path, """\
        seen = set()
        order = [x for x in seen]
        """, "PAX101")
    assert len(hits) == 1


def test_pax101_ignores_sorted_and_reductions(tmp_path):
    hits = lint_snippet(tmp_path, """\
        bodies = {1, 2, 3}
        out = []
        for b in sorted(bodies):
            out.append(b)
        n = len(bodies)
        top = max(b for b in bodies)
        ok = any(b > 1 for b in bodies)
        """, "PAX101")
    assert hits == []


def test_pax101_ignores_non_sim_modules(tmp_path):
    hits = lint_snippet(tmp_path, """\
        bodies = {1, 2, 3}
        out = [b for b in bodies]
        """, "PAX101", relpath="repro/analysis/mod.py")
    assert hits == []


# -- PAX102: id() -------------------------------------------------------

def test_pax102_triggers_on_id(tmp_path):
    hits = lint_snippet(tmp_path, """\
        def key_of(geom):
            return id(geom)
        """, "PAX102")
    assert len(hits) == 1


def test_pax102_ignores_uid_and_non_sim(tmp_path):
    assert lint_snippet(tmp_path, """\
        def key_of(geom):
            return geom.uid
        """, "PAX102") == []
    assert lint_snippet(tmp_path, "x = id(object())\n", "PAX102",
                        relpath="repro/workloads/mod.py") == []


# -- PAX103: unseeded RNG -----------------------------------------------

def test_pax103_triggers_on_global_rng(tmp_path):
    hits = lint_snippet(tmp_path, """\
        import random
        import numpy as np

        def jitter():
            a = random.random()
            b = np.random.rand(3)
            rng = np.random.default_rng()
            return a, b, rng
        """, "PAX103")
    assert len(hits) == 3


def test_pax103_allows_seeded_rng(tmp_path):
    hits = lint_snippet(tmp_path, """\
        import random
        import numpy as np

        def jitter(seed):
            rng = random.Random(seed)
            gen = np.random.default_rng(seed)
            return rng.random() + gen.standard_normal()
        """, "PAX103")
    assert hits == []


# -- PAX104: wall clock -------------------------------------------------

def test_pax104_triggers_on_wall_clock(tmp_path):
    hits = lint_snippet(tmp_path, """\
        import time
        from time import perf_counter
        from datetime import datetime

        def stamp(world):
            world.t0 = time.time()
            world.t1 = perf_counter()
            world.t2 = datetime.now()
        """, "PAX104")
    assert len(hits) == 3


def test_pax104_ignores_profiling_and_sim_time(tmp_path):
    assert lint_snippet(tmp_path, """\
        def stamp(world, dt):
            world.time += dt
        """, "PAX104") == []
    assert lint_snippet(tmp_path, """\
        import time

        def measure():
            return time.perf_counter()
        """, "PAX104", relpath="repro/profiling/mod.py") == []


# -- PAX105: unordered accumulation -------------------------------------

def test_pax105_triggers_on_sum_over_set(tmp_path):
    hits = lint_snippet(tmp_path, """\
        energies = {1.0, 2.0}
        total = sum(energies)
        also = sum(e * 2.0 for e in energies)
        """, "PAX105")
    assert len(hits) == 2


def test_pax105_triggers_on_augassign_in_set_loop(tmp_path):
    hits = lint_snippet(tmp_path, """\
        energies = {1.0, 2.0}
        total = 0.0
        for e in energies:
            total += e
        """, "PAX105")
    assert len(hits) == 1


def test_pax105_ignores_ordered_sum(tmp_path):
    hits = lint_snippet(tmp_path, """\
        energies = [1.0, 2.0]
        total = sum(energies)
        srt = sum(sorted({3.0, 4.0}))
        """, "PAX105")
    # sum over a list is ordered; sum(sorted(...)) is ordered too
    assert [h.line for h in hits] == []


# -- PAX106: swallowed exceptions ---------------------------------------

def test_pax106_triggers_on_bare_and_silent_except(tmp_path):
    hits = lint_snippet(tmp_path, """\
        def step(world):
            try:
                world.advance()
            except:
                pass

        def step2(world):
            try:
                world.advance()
            except Exception:
                pass
        """, "PAX106")
    assert len(hits) == 2


def test_pax106_allows_specific_or_handled(tmp_path):
    hits = lint_snippet(tmp_path, """\
        def step(world):
            try:
                world.advance()
            except ValueError:
                pass

        def step2(world):
            try:
                world.advance()
            except Exception:
                world.health = "bad"
                raise
        """, "PAX106")
    assert hits == []


# -- PAX107: mutable shared state ---------------------------------------

def test_pax107_triggers_on_module_mutable_and_default(tmp_path):
    hits = lint_snippet(tmp_path, """\
        cache = {}

        def step(world, pending=[]):
            pending.append(world)
        """, "PAX107")
    assert len(hits) == 2


def test_pax107_allows_constants_and_immutable_defaults(tmp_path):
    hits = lint_snippet(tmp_path, """\
        DISPATCH = {"a": 1}
        NAMES = ["x", "y"]

        def step(world, pending=(), scale=1.0):
            return pending, scale
        """, "PAX107")
    assert hits == []


# -- PAX201: snapshot completeness --------------------------------------

BODY_OK = """\
    class Body:
        def __init__(self):
            self.position = 0.0
            self.velocity = 0.0

        def snapshot_state(self):
            return {"position": self.position,
                    "velocity": self.velocity}

        def restore_state(self, state):
            self.position = state["position"]
            self.velocity = state["velocity"]
    """


def test_pax201_clean_body_passes(tmp_path):
    hits = lint_snippet(tmp_path, BODY_OK, "PAX201",
                        relpath="repro/dynamics/body.py")
    assert hits == []


def test_pax201_triggers_on_unsnapshotted_field(tmp_path):
    code = BODY_OK.replace(
        '"velocity": self.velocity}', '}').replace(
        'self.velocity = state["velocity"]', 'pass')
    hits = lint_snippet(tmp_path, code, "PAX201",
                        relpath="repro/dynamics/body.py")
    assert len(hits) == 1
    assert "velocity" in hits[0].message
    assert hits[0].line == 4  # the self.velocity = ... declaration


def test_pax201_demo_deleting_snapshot_field_fails_lint(tmp_path):
    """Acceptance demo: drop one line from the real Body.snapshot_state
    and the real tree stops linting clean."""
    root = str(tmp_path / "demo")
    shutil.copytree(os.path.join(REPO_SRC, "repro"),
                    os.path.join(root, "repro"))
    body_py = os.path.join(root, "repro", "dynamics", "body.py")
    with open(body_py) as fh:
        text = fh.read()
    assert '"sleep_timer": self.sleep_timer,' in text
    with open(body_py, "w") as fh:
        fh.write(text.replace('"sleep_timer": self.sleep_timer,', ""))
    result = lint_paths([os.path.join(root, "repro")])
    msgs = [f.message for f in active(result.findings)
            if f.rule == "PAX201"]
    assert any("sleep_timer" in m for m in msgs)


def test_pax201_demo_deleting_world_capture_field_fails_lint(tmp_path):
    root = str(tmp_path / "demo")
    shutil.copytree(os.path.join(REPO_SRC, "repro"),
                    os.path.join(root, "repro"))
    snap_py = os.path.join(root, "repro", "resilience", "checkpoint.py")
    with open(snap_py) as fh:
        text = fh.read()
    assert '"culled": world.culled,' in text
    with open(snap_py, "w") as fh:
        fh.write(text.replace('"culled": world.culled,', ""))
    result = lint_paths([os.path.join(root, "repro")])
    msgs = [f.message for f in active(result.findings)
            if f.rule == "PAX201"]
    assert any("culled" in m for m in msgs)


# -- suppressions & PAX001 ----------------------------------------------

def test_suppression_with_reason_silences(tmp_path):
    hits = lint_snippet(tmp_path, """\
        def key_of(geom):
            return id(geom)  # pax: ignore[PAX102]: stable in-process
        """, "PAX102")
    assert len(hits) == 1 and hits[0].suppressed
    assert hits[0].suppress_reason == "stable in-process"


def test_suppression_on_preceding_line_silences(tmp_path):
    hits = lint_snippet(tmp_path, """\
        def key_of(geom):
            # pax: ignore[PAX102]: debugging aid, not used in ordering
            return id(geom)
        """, "PAX102")
    assert len(hits) == 1 and hits[0].suppressed


def test_pax001_on_reasonless_or_unknown_suppression(tmp_path):
    hits = lint_snippet(tmp_path, """\
        x = 1  # pax: ignore[PAX102]
        y = 2  # pax: ignore[PAX999]: no such rule
        """, "PAX001")
    assert len(hits) == 2
    assert "no reason" in hits[0].message
    assert "unknown rule" in hits[1].message


def test_reasonless_suppression_does_not_silence(tmp_path):
    hits = lint_snippet(tmp_path, """\
        def key_of(geom):
            return id(geom)  # pax: ignore[PAX102]
        """, "PAX102")
    assert len(hits) == 1 and not hits[0].suppressed


# -- CLI ----------------------------------------------------------------

def test_cli_explain_covers_every_rule(capsys):
    for rule in RULES:
        assert lint_main(["--explain", rule.code]) == 0
        out = capsys.readouterr().out
        assert rule.code in out
        assert len(out.strip().splitlines()) >= 3  # has a rationale


def test_cli_exit_codes(tmp_path, capsys):
    """1 on a finding, 0 when clean, 2 on a non-.py path and on an
    unknown --explain code."""
    root = str(tmp_path)
    write_module(root, "repro/__init__.py", "")
    mod = write_module(root, "repro/engine/mod.py",
                       "bad = id(object())\n")
    pkg = os.path.join(root, "repro")
    assert lint_main([pkg]) == 1
    out = capsys.readouterr().out
    assert "PAX102" in out and "1 new finding(s)" in out
    with open(mod, "w") as fh:
        fh.write("good = 1\n")
    assert lint_main([pkg]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out
    assert lint_main([os.path.join(root, "notes.txt")]) == 2
    assert "not a Python file" in capsys.readouterr().err
    assert lint_main(["--explain", "PAX9"]) == 2
    assert "unknown rule" in capsys.readouterr().err


# -- the repo itself ----------------------------------------------------

def test_self_lint_repo_is_clean():
    """`python -m repro.lint src/repro` must exit 0: every finding in
    the tree is either fixed or carries a justified suppression."""
    result = lint_paths([os.path.join(REPO_SRC, "repro")])
    assert active(result.findings) == [], [
        f.render() for f in active(result.findings)]


def test_self_lint_cli_exit_zero(capsys):
    assert lint_main([os.path.join(REPO_SRC, "repro")]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_every_rule_has_fixture_coverage():
    """Meta-test: every shipped rule code appears in at least one
    triggering test above (grep this file)."""
    with open(__file__) as fh:
        text = fh.read()
    for rule in RULES:
        assert text.count(rule.code) >= 2, rule.code


@pytest.mark.parametrize("code", [r.code for r in RULES])
def test_rationales_are_substantial(code):
    rule = next(r for r in RULES if r.code == code)
    assert len(rule.rationale) > 120
    assert rule.name
