#!/usr/bin/env python3
"""Design-space tour: the paper's architecture study on one benchmark.

Runs the Mix benchmark at a reduced scale, then walks the ParallAX design
space: conventional CMP scaling, the partitioned-L2 win, FG core designs
and interconnect choices — printing the modeled frame time and FPS for
each point.  (``--scale 1.0`` reproduces paper-scale counts but is slow in
pure Python.)
"""

import argparse

from repro.arch import (
    HTX,
    ONCHIP_MESH,
    PCIE,
    L2Partitioning,
    ParallaxConfig,
    ParallaxMachine,
)
from repro.api import SessionSpec, run_scenario
from repro.arch.area import fg_pool_area

MB = 1024 * 1024


def show(label, seconds):
    fps = 1.0 / seconds if seconds > 0 else float("inf")
    print(f"  {label:52s} {seconds * 1e3:8.2f} ms   {fps:7.1f} FPS")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--benchmark", default="mix")
    args = parser.parse_args()

    print(f"simulating '{args.benchmark}' at scale {args.scale} ...")
    run = run_scenario(
        SessionSpec(args.benchmark, scale=args.scale), frames=5,
        measure_from=3
    )
    report = run.measured

    print("\n-- conventional CMP (shared L2) --")
    for cores, l2_mb in ((1, 1), (1, 16), (2, 16), (4, 16)):
        machine = ParallaxMachine(
            ParallaxConfig(cg_cores=cores, l2=L2Partitioning.shared(l2_mb * MB))
        )
        show(
            f"{cores} CG core(s), {l2_mb}MB shared L2",
            machine.frame_seconds(report, threads=cores),
        )

    print("\n-- application-aware L2 partitioning (the 12MB scheme) --")
    machine = ParallaxMachine(
        ParallaxConfig(cg_cores=4, l2=L2Partitioning.paper_scheme())
    )
    show("4 CG cores, 4+4+4MB partitioned L2",
         machine.frame_seconds(report, threads=4))

    print("\n-- ParallAX: + FG core pool --")
    for design, count in (("desktop", 30), ("console", 43), ("shader", 150)):
        machine = ParallaxMachine(
            ParallaxConfig(
                cg_cores=4, l2=L2Partitioning.paper_scheme(),
                fg_design=design, fg_cores=count,
                interconnect=ONCHIP_MESH,
            )
        )
        area = fg_pool_area(design, count)
        show(
            f"+ {count} {design} FG cores (pool {area:.0f} mm^2)",
            machine.parallax_frame_seconds(report),
        )

    print("\n-- interconnect sensitivity (150 shader cores) --")
    for link in (ONCHIP_MESH, HTX, PCIE):
        machine = ParallaxMachine(
            ParallaxConfig(
                cg_cores=4, l2=L2Partitioning.paper_scheme(),
                fg_design="shader", fg_cores=150, interconnect=link,
            )
        )
        off = machine.offload_timings(report)
        offload = {
            p: f"{t.offloaded_fraction * 100:.0f}%"
            for p, t in off.items()
            if t.offloaded_fraction or p == "cloth"
        }
        show(f"{link.name:12s} offloaded={offload}",
             machine.parallax_frame_seconds(report))

    print("\n-- how many FG cores for 30 FPS? --")
    for design in ("desktop", "console", "shader"):
        machine = ParallaxMachine(ParallaxConfig(fg_design=design))
        n = machine.fg_cores_required(report, budget_fraction=0.32)
        print(f"  {design:10s}: {n} cores "
              f"({fg_pool_area(design, n):.0f} mm^2)")


if __name__ == "__main__":
    main()
