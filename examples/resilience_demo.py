#!/usr/bin/env python3
"""Run a benchmark under the resilience layer.

Guard every sub-step with the watchdog, optionally poison one body
halfway through, and print the incident log and final validation
verdict:

    python examples/resilience_demo.py --watchdog --poison
    python examples/resilience_demo.py --benchmark breakable --watchdog
    python examples/resilience_demo.py --poison        # unguarded burn

``--poison`` sets the position of the enabled dynamic body with the
lowest uid to NaN after half the frames. With ``--watchdog`` the
rollback cannot undo it (the NaN is in the pre-step snapshot), so the
ladder climbs to ``quarantine``; without it the validator reports the
NaN.
"""

import argparse

from repro.api import Session, SessionSpec
from repro.math3d import Vec3
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
    parser.add_argument("--poison", action="store_true",
                        help="set one body's position to NaN halfway")
    args = parser.parse_args()

    spec = SessionSpec(args.benchmark, scale=args.scale, seed=args.seed,
                       watchdog=args.watchdog)
    session = Session.create(spec)
    half = args.frames // 2
    session.step(half)
    if args.poison:
        body = min((b for b in session.world.bodies
                    if b.enabled and not b.is_static),
                   key=lambda b: b.uid)
        nan = float("nan")
        body.position = Vec3(nan, nan, nan)
        print(f"poisoned body {body.uid} after frame {half}")
    session.step(args.frames - half)

    if session.health is not None:
        print(f"watchdog: {session.health.summary()}")
        for event in session.health:
            print(f"  {event!r}")
    report = validate_world(session.world, health=session.health)
    print(f"validation: {report.summary()}")
    for note in report.notes:
        print(f"  note: {note}")


if __name__ == "__main__":
    main()
