"""Tests of the benchmark's own rules (``python -m pytest bench/tests``).

Outside the tier-1 ``testpaths``: the smoke run spawns eight child
processes and takes about 15 s.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import run, stats, trace  # noqa: E402
from bench.workloads import FAILED, Ops  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- statistics ---------------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert stats.percentile(samples, 50) == 100
    assert stats.percentile(samples, 95) == 190


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 95)   # 9 beyond rank 190
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(32)), 95)
    assert stats.tail_or_none(list(range(32)), 95) is None
    assert stats.percentile(list(range(32)), 50) == 15  # median: always


def test_aggregate_reports_median_best_and_iqr():
    times = stats.aggregate([10.0, 12.0, 11.0, 30.0, 10.5], "lower")
    assert times["median"] == 11.0
    assert times["best"] == 10.0
    assert times["n"] == 5
    assert times["iqr"] == pytest.approx(21.0 - 10.25)
    assert times["rel_iqr"] == pytest.approx((21.0 - 10.25) / 11.0)
    rates = stats.aggregate([40.0, 44.0, 42.0], "higher")
    assert rates["best"] == 44.0 and rates["median"] == 42.0
    assert stats.aggregate([7.0], "lower")["iqr"] == 0.0


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


# -- spans --------------------------------------------------------------

def _recorder_with(spans):
    recorder = trace.Recorder()
    for name, start, end, parent in spans:
        recorder.names.append(name)
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
        recorder.requests.append("w/0/0/0")
    return recorder


def test_self_time_subtracts_direct_children_only():
    recorder = _recorder_with([
        ("api.session", 0.0, 10.0, -1),
        ("engine.world", 1.0, 9.0, 0),
        ("dynamics.solver", 2.0, 5.0, 1),
        ("profiling.report", 3.0, 4.0, 2),
        ("dynamics.solver", 6.0, 8.0, 1),
    ])
    own = trace.self_times(recorder)
    assert own == {"api.session": 2.0, "engine.world": 3.0,
                   "dynamics.solver": 4.0, "profiling.report": 1.0}
    assert sum(own.values()) == 10.0   # a tree sums to its root
    assert trace.call_counts(recorder)["dynamics.solver"] == 2


def test_wrap_records_nesting_request_and_restores():
    class Layer:
        @classmethod
        def build(cls, n):
            return [cls.leaf(i) for i in range(n)]

        @staticmethod
        def leaf(i):
            return i * i

    recorder = trace.Recorder()
    recorder.wrap(Layer, "build", "outer",
                  after=lambda rec, result: rec.count("built", len(result)))
    recorder.request = "w/0/s/7"
    recorder.enabled = False
    assert Layer.build(2) == [0, 1] and len(recorder) == 0
    recorder.enabled = True
    with recorder.span("root"):
        assert Layer.build(3) == [0, 1, 4]
    assert recorder.names == ["root", "outer"]
    assert list(recorder.parents) == [-1, 0]
    assert recorder.requests == ["w/0/s/7"] * 2
    assert recorder.counts == {"built": 3}
    recorder.uninstall()
    Layer.build(1)
    assert len(recorder) == 2


# -- operations ---------------------------------------------------------

def test_injected_exception_is_a_failed_operation_without_a_sample():
    ops = Ops()

    def frame(n):
        if n == 2:
            raise RuntimeError("solver blew up")
        return n

    samples = [r for r in (ops.attempt(f"step {n}", frame, n)
                           for n in range(4)) if r is not FAILED]
    assert samples == [0, 1, 3]
    assert (ops.attempted, ops.failed) == (4, 1)
    assert "RuntimeError: solver blew up" in ops.failures[0]
    ops.check("twin digest", False, "a != b")
    assert (ops.attempted, ops.failed) == (5, 2)


def _fake_pass(digest, frame_s=0.033):
    series = {"segments": [frame_s] * 200, "latencies": [frame_s] * 200}
    client = stats.client_figures(series)
    client.update({"peak_rss_mb": 40.0, "setup_s": 0.3})
    return dict(series, client=client, layers={}, digest=digest,
                ops_attempted=200, ops_failed=0, failures=[])


def test_client_timings_use_the_fastest_pass_per_operation():
    spec = run.load_spec()
    quiet, disturbed = _fake_pass("aa"), _fake_pass("aa")
    disturbed["latencies"] = disturbed["segments"] = \
        [0.033] * 100 + [0.066] * 100          # a noisy second half
    disturbed["client"].update(stats.client_figures(disturbed))
    metrics = run.summarise(spec, [quiet, disturbed], [])["metrics"]
    assert metrics["frame_ms_p50"]["value"] == pytest.approx(33.0)
    assert metrics["frames_per_s"]["value"] == pytest.approx(1 / 0.033)
    assert metrics["frames_per_s"]["passes"] == pytest.approx(
        [1 / 0.033, 200 / 9.9])                # the noise stays visible
    assert metrics["setup_s"]["value"] == 0.3  # medians elsewhere


def test_digest_mismatch_between_passes_is_a_failed_operation():
    spec = run.load_spec()
    same = run.summarise(spec, [_fake_pass("aa"), _fake_pass("aa")], [])
    assert (same["ops_attempted"], same["ops_failed"]) == (401, 0)
    differ = run.summarise(spec, [_fake_pass("aa"), _fake_pass("bb")], [])
    assert differ["ops_failed"] == 1
    assert "disagree" in differ["failures"][0]
    assert json.loads(run.contract_line(spec, differ, False))[
        "correct"] is False


# -- the files a driver reads -------------------------------------------

def test_benchmark_json_shape():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in spec["end_to_end"])
    assert set(run.EXACT) <= {m["name"] for m in spec["per_layer"]}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out / "results.json") as fh:
        return proc.stdout, json.load(fh), out


def test_smoke_results_shape(smoke):
    _stdout, results, out = smoke
    spec = run.load_spec()
    assert set(results) == {"seed", "reference_box", "workloads"}
    assert set(results["workloads"]) == {w["name"]
                                         for w in spec["workloads"]}
    for name, result in results["workloads"].items():
        assert result["ops_failed"] == 0, result["failures"]
        assert result["ops_attempted"] > 0
        for metric in spec["end_to_end"]:
            figures = result["metrics"][metric["name"]]
            assert figures["n"] == 1 and figures["value"] > 0
            assert figures["unit"] == metric["unit"]
        assert (out / f"trace-{name}.json").exists()


def test_smoke_prints_every_metric_with_its_unit(smoke):
    stdout, results, _out = smoke
    spec = run.load_spec()
    unseen = []
    for metric in spec["end_to_end"] + spec["per_layer"]:
        line = re.compile(r"^\s+" + re.escape(metric["name"])
                          + r"\s+[-+0-9.e]+\s+" + re.escape(metric["unit"])
                          + r"\s", re.M)
        if not line.search(stdout):
            unseen.append(metric["name"])
    # Ten-frame passes cannot carry a p95 (the percentile rule).
    assert unseen == ["frame_ms_p95"]


def test_smoke_layers_appear_where_they_run(smoke):
    _stdout, results, out = smoke
    by_workload = {w: r["metrics"] for w, r in results["workloads"].items()}
    stepping = ("solo_articulated", "solo_contact", "fleet_serve")
    assert [w for w in stepping
            if by_workload[w]["cloth.self_ms"]["value"] > 0] \
        == ["fleet_serve"]
    for w in stepping:
        metrics = by_workload[w]
        layers = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_ms"))
        traced_frame_ms = results["workloads"][w]["traced_frame_ms"][0]
        assert layers == pytest.approx(traced_frame_ms, rel=0.02)
    with open(out / "trace-analysis_regen.json") as fh:
        names = json.load(fh)["names"]
    assert not [n for n in names
                if n.startswith(("fastpath", "serve", "dynamics"))]
    assert "arch.cache" in names and "workloads.run_all" in names


def test_simulate_phase_matches_run_all(smoke):
    """The spelt-out simulate loop does what ``workloads.run_all`` does."""
    import warnings

    from repro.workloads import run_all

    from bench.workloads import SMOKE

    params = SMOKE["analysis_regen"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        runs = run_all(scale=params["scale"], frames=params["frames"],
                       measure_from=max(0, params["frames"] - 2), seed=0)
    minst = sum(r.total_instructions() for r in runs.values()) / 1e6
    _stdout, results, _out = smoke
    measured = results["workloads"]["analysis_regen"]["metrics"]
    assert measured["workloads.minst_simulated"]["value"] == minst


def test_driver_form_prints_the_contract_line(tmp_path):
    spec = run.load_spec()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--workload", "solo_contact", "--seed", "3", "--seconds", "0",
         "--trace", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert all(set(v) == {"value", "unit"}
               for v in last["metrics"].values())
