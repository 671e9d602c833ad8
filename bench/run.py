"""The repo benchmark: one command, four workloads, named metrics.

    python bench/run.py --seed 0                  # everything, ~5 min
    python bench/run.py --workload solo_contact   # one workload
    python bench/run.py --aa                      # twice; must agree
    python bench/run.py --smoke                   # tiny sizes, ~20 s
    python bench/run.py --workload W --seed S --seconds T --trace 0|1

Every pass of every workload runs in a fresh child process, one at a
time (``bench/workloads.py``). Untraced passes give the end-to-end
metrics; traced passes, with timing wrappers installed from
``bench/layers.py``, give the per-layer metrics. Every pass replays the
same operations, so client-observed timings are taken over the fastest
pass of each operation; everything else is the median over passes, and
``bench/out/results.json`` keeps every pass's value, the best pass and
the inter-quartile range beside each reported number. The last form
is the one an automated driver uses: it measures one workload for about
``T`` seconds and prints one JSON object as the last line of stdout.
See ``bench/README.md`` for the workloads, the metrics and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: import ``bench`` as a package from the repo root
    # (and keep bench/trace.py from shadowing the stdlib ``trace``).
    sys.path[0] = str(ROOT)

from bench import stats  # noqa: E402

MIN_PASSES = 3      # a median needs three passes to shrug off one spell
FULL_PASSES = 5
PASS_TIMEOUT = 150  # seconds; a healthy pass takes under 30

#: Per-layer metrics that are a pure function of the seed: two runs of
#: the same code must agree on them exactly (``--aa`` checks it).
EXACT = (
    "model_err_table3", "analysis.sim_digest48",
    "workloads.minst_simulated", "arch.cache.profiles",
    "arch.cache.accesses", "arch.pipeline.calls",
    "profiling.report.touches", "collision.broadphase.pairs",
    "collision.broadphase.tests", "collision.narrowphase.tests",
    "collision.narrowphase.contacts", "collision.narrowphase.hit_ratio",
    "dynamics.islands.count", "dynamics.joints.rows",
    "dynamics.solver.calls", "dynamics.solver.row_updates",
    "engine.integrate.calls", "engine.integrate.integrations",
    "cloth.constraint_updates", "resilience.checkpoint_bytes",
)


class PassFailed(RuntimeError):
    """A child process died or printed no result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spawn_pass(workload, seed, index, traced, out_dir, smoke=False,
               checks=False) -> dict:
    """Run one pass in a fresh child process and return its result."""
    src = str(ROOT / "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise PassFailed(f"no program to measure: {src}/repro is missing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "bench.workloads",
           "--workload", workload, "--seed", str(seed),
           "--pass-index", str(index), "--trace", str(int(traced)),
           "--out", str(out_dir), "--spawned-at", repr(time.time())]
    cmd += ["--smoke"] * smoke + ["--checks"] * checks
    # Own process group, so that a pass that hangs is killed together
    # with the shard workers it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{workload} pass {index} exceeded "
                         f"{PASS_TIMEOUT}s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass {index} exited "
                         f"{proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(spec, plain, traced) -> dict:
    """Fold a workload's passes into ``{metrics, ops_*, digest, ...}``.

    Client-observed figures (the end-to-end metrics and the per-layer
    names that are client timings of one workload) come from the
    untraced passes only; layer figures come from the traced passes. A
    per-layer metric whose layer does not run on this workload reads 0.

    Every pass replays the same operations (same seed; the digest check
    below holds it to that), so operation k costs the same in every
    pass except for interference, which only ever adds time. The
    client-observed timings are therefore computed over the
    per-operation minimum across the untraced passes; everything else
    is the median over passes. Each metric keeps its per-pass values,
    best pass and IQR beside the reported value.
    """
    series = {key: stats.fastest([p[key] for p in plain])
              for key in ("segments", "latencies", "migrations")
              if plain and key in plain[0]}
    series["regen"] = bool(plain and plain[0].get("regen"))
    undisturbed = stats.client_figures(series) if plain else {}

    metrics = {}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        name = entry["name"]
        values = [p["client"][name] for p in plain
                  if p["client"].get(name) is not None]
        if not values:
            values = [t["layers"][name] for t in traced
                      if name in t["layers"]]
        if not values and name == "trace.overhead_ratio" and traced:
            values = [statistics.median(sum(t["segments"]) for t in traced)
                      / statistics.median(sum(p["segments"])
                                          for p in plain)]
        if values:
            figures = stats.aggregate(values, entry["better"])
        else:
            figures = {"median": 0.0, "best": 0.0, "iqr": 0.0,
                       "rel_iqr": 0.0, "n": 0, "passes": []}
        figures["value"] = figures["median"]
        if values and undisturbed.get(name) is not None:
            figures["value"] = undisturbed[name]
        figures["unit"] = entry["unit"]
        metrics[name] = figures

    passes = plain + traced
    attempted = sum(p["ops_attempted"] for p in passes) + 1
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["ops_failed"] for p in passes)
    # Output check: every pass of a workload, traced or not, must end
    # on the same digest (same seed, same inputs, same program).
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        failed += 1
        failures.append("passes disagree on the final digest: "
                        + ", ".join(d[:12] for d in digests))
    return {
        "metrics": metrics,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": failures,
        "digest": digests[0],
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples_per_pass": len(plain[0]["latencies"]) if plain else 0,
        "traced_frame_ms": [t["traced_frame_ms"] for t in traced
                            if "traced_frame_ms" in t],
    }


# -- the two ways of spending the time ----------------------------------

def run_full(spec, workloads, seed, passes, out_dir, smoke) -> dict:
    """``passes`` untraced passes per workload, interleaved round-robin
    so that a noisy spell is spread over all of them, then one traced
    pass each."""
    plain = {w: [] for w in workloads}
    for index in range(passes):
        for w in workloads:
            print(f"# pass {index + 1}/{passes} {w}", file=sys.stderr,
                  flush=True)
            plain[w].append(spawn_pass(w, seed, index, False, out_dir,
                                       smoke, checks=index == 0))
    results = {}
    for w in workloads:
        print(f"# traced pass {w}", file=sys.stderr, flush=True)
        traced = [spawn_pass(w, seed, passes, True, out_dir, smoke)]
        results[w] = summarise(spec, plain[w], traced)
    return results


def run_timed(spec, workload, seed, seconds, traced, out_dir,
              smoke=False) -> dict:
    """Measure one workload for about ``seconds``: whole passes until
    the time is up, never fewer than :data:`MIN_PASSES` untraced ones.
    A traced run spends one untraced pass on the client-side figures
    and the tracing-overhead base, and the rest on traced passes."""
    start = time.perf_counter()

    def time_left():
        return time.perf_counter() - start < seconds

    plain, with_trace = [], []
    if traced:
        plain.append(spawn_pass(workload, seed, 0, False, out_dir, smoke))
        while not with_trace or time_left():
            with_trace.append(spawn_pass(workload, seed, len(with_trace)
                                         + 1, True, out_dir, smoke))
    else:
        while len(plain) < MIN_PASSES or time_left():
            plain.append(spawn_pass(workload, seed, len(plain), False,
                                    out_dir, smoke, checks=not plain))
    return summarise(spec, plain, with_trace)


# -- reporting ----------------------------------------------------------

def reference_box() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def print_workload(spec, workload, result):
    print(f"\n== {workload}: {result['passes']} passes + "
          f"{result['traced_passes']} traced, "
          f"{result['samples_per_pass']} samples/pass, "
          f"ops_attempted={result['ops_attempted']} "
          f"ops_failed={result['ops_failed']}, "
          f"digest {result['digest'][:16]}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for kind in ("end_to_end", "per_layer"):
        print(f"-- {kind}")
        for entry in spec[kind]:
            m = result["metrics"][entry["name"]]
            if not m["n"]:
                continue  # the layer does not run on this workload
            shown = (str(m["value"]) if isinstance(m["value"], int)
                     else f"{m['value']:.6g}")
            print(f"   {entry['name']:<36} {shown:>16} "
                  f"{m['unit']:<9} best {m['best']:.6g}  "
                  f"iqr {m['rel_iqr'] * 100:.1f}%  n={m['n']}")


def contract_line(spec, result, traced) -> str:
    """The driver's result: exactly the metrics of the mode it asked."""
    names = [e["name"] for e in spec["per_layer" if traced
                                     else "end_to_end"]]
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {name: {"value": result["metrics"][name]["value"],
                           "unit": result["metrics"][name]["unit"]}
                    for name in names},
    })


def write_results(path, seed, results):
    payload = {"seed": seed, "reference_box": reference_box(),
               "workloads": results}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def compare_aa(spec, first, second) -> int:
    """Print, per metric x workload, how far two runs of the same code
    disagree beside the bound; return how many pairings exceed it."""
    over = 0
    print("\n== A/A: relative disagreement of the two runs")
    for workload in first:
        a, b = first[workload]["metrics"], second[workload]["metrics"]
        for entry in spec["end_to_end"]:
            name = entry["name"]
            gap = abs(stats.worsening(a[name]["value"], b[name]["value"],
                                      entry["better"]))
            bad = gap > entry["bound"]
            over += bad
            print(f"   {workload:<18} {name:<16} {gap * 100:6.2f}%  "
                  f"bound {entry['bound'] * 100:.0f}%"
                  f"{'  EXCEEDED' if bad else ''}")
        for name in EXACT:
            if a[name]["value"] != b[name]["value"]:
                over += 1
                print(f"   {workload:<18} {name:<16} "
                      f"{a[name]['value']!r} != {b[name]['value']!r}  "
                      f"must be exact  EXCEEDED")
        if first[workload]["digest"] != second[workload]["digest"]:
            over += 1
            print(f"   {workload:<18} digest differs  EXCEEDED")
    return over


def main(argv=None) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=known,
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only input to workload generation")
    parser.add_argument("--passes", type=int, default=FULL_PASSES,
                        help="untraced passes per workload "
                             f"(default {FULL_PASSES})")
    parser.add_argument("--out", default=str(ROOT / "bench" / "out"),
                        help="where results.json and traces go")
    parser.add_argument("--aa", action="store_true",
                        help="run twice; fail if the runs disagree "
                             "beyond a metric's bound")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at tiny sizes (shape check only)")
    parser.add_argument("--seconds", type=float,
                        help="driver form: measure about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 prints the end-to-end "
                             "metrics, 1 the per-layer metrics")
    args = parser.parse_args(argv)
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or known

    try:
        if args.trace is not None:
            if len(workloads) != 1 or args.seconds is None:
                parser.error("--trace needs one --workload and --seconds")
            result = run_timed(spec, workloads[0], args.seed,
                               args.seconds, bool(args.trace), out_dir,
                               args.smoke)
            print_workload(spec, workloads[0], result)
            print(contract_line(spec, result, bool(args.trace)))
            return 0

        passes = 1 if args.smoke else max(1, args.passes)
        results = run_full(spec, workloads, args.seed, passes, out_dir,
                           args.smoke)
        for workload in workloads:
            print_workload(spec, workload, results[workload])
        write_results(out_dir / "results.json", args.seed, results)
        failed = sum(r["ops_failed"] for r in results.values())
        if args.aa:
            second = run_full(spec, workloads, args.seed, passes, out_dir,
                              args.smoke)
            write_results(out_dir / "results-aa.json", args.seed, second)
            failed += sum(r["ops_failed"] for r in second.values())
            failed += compare_aa(spec, results, second)
        print(f"\n# wrote {out_dir / 'results.json'}")
        return 1 if failed else 0
    except PassFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
