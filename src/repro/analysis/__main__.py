"""Regenerate every figure/table in ``results/`` from one command.

    PYTHONPATH=src python -m repro.analysis

Simulates the eight benchmarks once, then runs every experiment driver
against the recorded reports, writing one ``<name>.txt`` per figure.
The defaults are the setting of the committed ``results/`` (scale 0.03,
2 frames, seed 0), which ``tests/test_paper_shapes.py`` pins byte for
byte through :func:`regenerate`; ``--experiments`` restricts the set
(comma-separated names).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..ablation.studies import STUDIES
from ..workloads import run_all
from . import calibrate, extensions, tables
from . import experiments as exp

# name -> callable(runs) returning (data, text); None-arg drivers are
# wrapped so everything takes the runs dict.
EXPERIMENTS = {
    "table3": tables.table3,
    "table4": tables.table4,
    "fig2a": exp.fig2a,
    "fig2b": exp.fig2b,
    "fig3a": exp.fig3a,
    "fig3b": exp.fig3b,
    "fig4a": exp.fig4a,
    "fig4b": exp.fig4b,
    "fig5a": exp.fig5a,
    "fig5b": exp.fig5b,
    "fig6a": exp.fig6a,
    "fig6b": exp.fig6b,
    "fig7a": exp.fig7a,
    "fig7b": exp.fig7b,
    "fig9a": exp.fig9a,
    "fig9b": exp.fig9b,
    "fig10a": exp.fig10a,
    "fig10b": exp.fig10b,
    "table7": exp.table7,
    "fig11": exp.fig11,
    "offchip": exp.offchip_filtering,
    "area": lambda runs: exp.area_table(),
    "kernel_footprints": lambda runs: exp.kernel_footprints(),
    "model2": extensions.model2_feasibility,
    "protocol": extensions.protocol_overhead,
    "prefetch": extensions.prefetch_study,
    "waypart": extensions.waypart_validation,
    "energy": extensions.energy_comparison,
    "noc": lambda runs: extensions.noc_sensitivity(),
    "simd": lambda runs: extensions.simd_ablation(),
    "calibration": calibrate.calibration,
}

# Focused single-mechanism ablation scenes (repro.ablation.studies);
# scale-independent, so the shared benchmark runs are ignored.
EXPERIMENTS.update({
    name: (lambda runs, fn=fn: fn()) for name, fn in STUDIES.items()
})


#: The setting of the committed ``results/``: the defaults of both
#: :func:`regenerate` and the CLI.
SCALE, FRAMES, SEED = 0.03, 2, 0


def regenerate(names=None, scale: float = SCALE, frames: int = FRAMES,
               seed: int = SEED):
    """Simulate once, run the ``names`` drivers (default: all).

    Returns ``(runs, tables)``: the :func:`~repro.workloads.run_all`
    dict and ``{name: (data, text)}`` with ``data`` the figure's numbers
    and ``text`` the rendered table.  A pure function of its arguments.
    """
    runs = run_all(scale=scale, frames=frames, seed=seed)
    tables = {}
    for name in (EXPERIMENTS if names is None else names):
        tables[name] = EXPERIMENTS[name](runs)
    return runs, tables


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.analysis", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--frames", type=int, default=FRAMES)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--experiments",
        help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)

    wanted = list(EXPERIMENTS)
    if args.experiments:
        wanted = [name.strip()
                  for name in args.experiments.split(",") if name.strip()]
        unknown = [n for n in wanted if n not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiments: {', '.join(unknown)}; "
                         f"choose from {', '.join(EXPERIMENTS)}")

    print(f"# running 8 benchmarks at scale {args.scale:g}, then "
          f"{len(wanted)} experiment drivers ...", flush=True)
    _runs, tables = regenerate(wanted, scale=args.scale,
                               frames=args.frames, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    for name, (_data, text) in tables.items():
        with open(os.path.join(args.out, f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")
    print(f"# wrote {len(tables)} files to {args.out}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
