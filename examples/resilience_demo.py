#!/usr/bin/env python3
"""Run a benchmark under the resilience layer.

Inject a seeded fault schedule, guard every sub-step with the watchdog,
and print the incident log and final validation verdict:

    python examples/resilience_demo.py --watchdog --faults
    python examples/resilience_demo.py --benchmark breakable --watchdog
    python examples/resilience_demo.py --faults        # unguarded burn

Without ``--watchdog`` the faults land on an unguarded world so you can
watch the difference: the validator reports the NaNs the watchdog would
have rolled back.
"""

import argparse

from repro.api import SessionSpec, run_scenario
from repro.resilience import FaultSchedule
from repro.workloads import validate_world


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="explosions",
                        help="Table 3 workload name (default: explosions)")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--frames", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--watchdog", action="store_true",
                        help="guard each sub-step: validate, roll back, "
                             "degrade")
    parser.add_argument("--faults", action="store_true",
                        help="inject a seeded fault schedule")
    parser.add_argument("--fault-count", type=int, default=4)
    args = parser.parse_args()

    schedule = None
    if args.faults:
        steps = args.frames * 3
        schedule = FaultSchedule.seeded(args.seed, steps,
                                        count=args.fault_count)
        print(f"fault schedule: {list(schedule)}")

    spec = SessionSpec(args.benchmark, scale=args.scale, seed=args.seed,
                       watchdog=args.watchdog, faults=schedule)
    run = run_scenario(spec, frames=args.frames)

    if run.injector is not None:
        print(f"injected: {run.injector.injected}")
    if run.health is not None:
        print(f"watchdog: {run.health.summary()}")
        for event in run.health:
            print(f"  {event!r}")
    report = validate_world(run.world, health=run.health)
    print(f"validation: {report.summary()}")
    for note in report.notes:
        print(f"  note: {note}")


if __name__ == "__main__":
    main()
