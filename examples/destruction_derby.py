#!/usr/bin/env python3
"""Destruction derby: the Breakable-benchmark feature set in one scene.

A prefractured brick wall is bombarded by an explosive cannon while a
bonded (mortared) wall takes a ramming car.  Demonstrates explosions,
blast volumes, prefractured debris, breakable fixed joints, and the event
log a game engine would consume.
"""

from repro.engine import World
from repro.geometry import Plane
from repro.math3d import Vec3
from repro.workloads import scenes


def main():
    world = World()
    world.add_static_geom(Plane(Vec3(0, 1, 0), 0.0))

    # Wall A: prefractured bricks (each shatters into 8 pieces on blast).
    wall_a = scenes.make_wall(
        world, Vec3(-6, 0, 0), bricks_x=4, bricks_y=4, prefractured=True
    )
    # Wall B: bricks mortared with breakable fixed joints.
    wall_b = scenes.make_wall(
        world, Vec3(6, 0, 0), bricks_x=4, bricks_y=4, bonded=True,
        break_threshold=1.0e4,
    )
    bonds = list(world.joints)

    cannon = scenes.Cannon(
        world, Vec3(-6, 1.5, 14), Vec3(-6, 1.0, 0),
        speed=35.0, period_steps=20, explosive=True,
    )

    car = scenes.make_car(world, Vec3(6, 0, 14), heading=0.0)
    for body in car.all_bodies():
        body.linear_velocity = Vec3(0, 0, -25.0)
    car.set_throttle(-40.0)

    print("step  explosions  debris-alive  bonds-broken  dyn-bodies")
    for step in range(150):
        cannon.tick()
        world.report = None
        world.step()
        if step % 15 == 0 or step == 149:
            debris = sum(
                1
                for pf in world.prefracture_registry
                for body, _ in pf.debris
                if body.enabled
            )
            broken = sum(1 for j in bonds if j.broken)
            print(
                f"{step:4d}  {len(world.explosions):10d}  {debris:12d}"
                f"  {broken:12d}  {len(world.dynamic_bodies()):10d}"
            )

    fractured = sum(1 for pf in world.prefracture_registry if pf.broken)
    broken_bonds = sum(1 for j in bonds if j.broken)
    print(f"\nprefractured bricks shattered: {fractured}/{len(wall_a)}")
    print(f"mortar bonds broken:           {broken_bonds}/{len(bonds)}")
    assert fractured > 0, "the cannon should have shattered some bricks"
    assert broken_bonds > 0, "the car should have cracked the bonded wall"
    print("OK: destruction verified.")


if __name__ == "__main__":
    main()
