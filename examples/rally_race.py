#!/usr/bin/env python3
"""Rally race: the Continuous-Contact benchmark feature set.

Cars on motorised hinge axles drive over rolling heightfield terrain
between static obstacles — continuous contact, the racing-genre scenario
of the paper's Table 3 — while the workload report shows the steady
contact stream it generates.
"""

import math

from repro.engine import World
from repro.math3d import Vec3
from repro.workloads import scenes


def main():
    world = World()
    terrain = scenes.make_terrain(
        world, extent=80.0, resolution=24, amplitude=0.6, seed=7
    )
    scenes.scatter_obstacles(world, 12, area=50.0, seed=7)

    cars = []
    for k in range(4):
        angle = k * math.pi / 2
        x, z = 12 * math.cos(angle), 12 * math.sin(angle)
        heading = angle + math.pi / 2
        car = scenes.make_car(
            world,
            Vec3(x, terrain.height_at(x, z) + 0.4, z),
            heading=heading,
        )
        car.set_throttle(16.0, max_force=800.0)
        # Rolling start: forward is the chassis' local +z.
        forward = car.chassis.orientation.rotate(Vec3(0, 0, 1))
        for body in car.all_bodies():
            body.linear_velocity = forward * 5.0
        cars.append(car)

    start = [car.chassis.position for car in cars]
    print("frame  car0-dist  car0-height  pairs  contacts  islands")
    for frame in range(40):
        report = world.step_frame()
        if frame % 5 == 0 or frame == 39:
            d = cars[0].chassis.position.distance_to(start[0])
            print(
                f"{frame:5d}  {d:9.2f}  {cars[0].chassis.position.y:11.2f}"
                f"  {int(report['broadphase'].get('pairs')):5d}"
                f"  {int(report['narrowphase'].get('contacts')):8d}"
                f"  {int(report['island_creation'].get('islands')) // 3:7d}"
            )

    distances = [
        car.chassis.position.distance_to(s) for car, s in zip(cars, start)
    ]
    moved = sum(1 for d in distances if d > 2.0)
    heights = [car.chassis.position.y for car in cars]
    print(f"\ncars that drove >2m: {moved}/4, distances: "
          f"{[round(d, 1) for d in distances]}")
    assert moved >= 3, "most cars should be driving"
    assert all(h > -1.0 for h in heights), "a car fell through the terrain"
    print("OK: rally complete.")


if __name__ == "__main__":
    main()
