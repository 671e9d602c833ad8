"""Run the feature-ablation matrix and emit ``ablation.json``.

    PYTHONPATH=src python -m repro.ablation \\
        --features all --workloads table3 --scale 0.03

``--features`` takes a comma-separated subset of the registry (or
``all``); ``--workloads`` takes Table 3 benchmark names (or
``table3``/``all``).  Scores are modeled-FPS deltas on the paper's
machine: two runs write byte-identical JSON, on any ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .features import default_registry
from .runner import AblationConfig, AblationRunner, make_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.ablation", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--features", default="all",
                        help="comma-separated feature names, or 'all'")
    parser.add_argument("--workloads", default="table3",
                        help="comma-separated Table 3 workloads, or "
                             "'table3'/'all'")
    parser.add_argument("--scale", type=float, default=0.03)
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: min(4, cores))")
    parser.add_argument("--list", action="store_true",
                        help="list registered features and exit")
    parser.add_argument("--out", default="ablation.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    registry = default_registry()
    if args.list:
        for feature in registry:
            state = "on" if feature.default_on else "off"
            print(f"{feature.name:16s} [{feature.kind}, default {state}]"
                  f" {feature.description}")
        return 0

    config = AblationConfig(
        features=args.features, workloads=args.workloads,
        scale=args.scale, frames=args.frames, seed=args.seed,
        jobs=args.jobs)
    runner = AblationRunner(config, registry)
    payload = runner.run(progress=lambda msg: print(f"# {msg}",
                                                    flush=True))
    report = make_report(payload)

    for name, feature in sorted(payload["features"].items()):
        summary = feature["summary"]
        print(f"{name:16s} modeled dfps "
              f"{summary['mean_delta_modeled_fps_pct']:+7.2f}% "
              f"drows {summary['mean_delta_row_updates_pct']:+7.1f}% "
              f"digest {summary['digest_changed_workloads']}/"
              f"{summary['workloads']} "
              f"importance {summary['importance']:.3f} "
              f"{'OK' if summary['all_validate_ok'] else 'INVALID'}")

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0 if all(f["summary"]["all_validate_ok"]
                    for f in payload["features"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
