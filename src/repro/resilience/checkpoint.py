"""Deterministic world checkpoints.

A :class:`WorldSnapshot` captures the complete dynamic state of a
:class:`~repro.engine.World` — body poses/velocities/accumulators and
mass properties, sleep state, joint enabled/broken flags (plus their
last accumulated impulses, for forensics), the contact warm-start
impulse cache, cloth vertex positions and previous positions, explosion
timers, prefracture trigger flags, step/frame counters, and the state of
registered scene actors (e.g. cannons). Restoring a snapshot and
re-stepping replays the original run **bit-identically** — proven by the
existing :class:`~repro.engine.recorder.TrajectoryRecorder` in the test
suite — which makes snapshots the substrate for watchdog rollback,
pause/resume, replay, and (later) distributed sharding.

The snapshot payload is JSON-native from the moment of capture
(``dict``/``list``/scalars only), so ``json.dumps(snapshot.to_dict())``
is lossless: Python's ``repr``-based float formatting round-trips every
finite ``float64`` exactly.

Bodies and geoms created *after* a capture (cannon shells, for example)
are removed on restore, and the global uid counters are rewound so
re-spawned objects receive the same uids as in the original run.
Conversely, restoring into a *fresh* build of the same scene (the
migration path: the snapshot travels to another process, which rebuilds
the scenario and replays the state onto it) reconstructs any bodies and
geoms the snapshot has but the build doesn't, from the per-geom
``build_state`` records captured since snapshot version 2.
"""

from __future__ import annotations

import json

from ..collision import Geom
from ..dynamics import Body
from ..engine.explosions import Explosion
from ..geometry import shape_from_dict
from ..math3d import Quaternion, Transform, Vec3


class SnapshotMismatchError(RuntimeError):
    """Raised when a snapshot is restored into an incompatible world."""


class WorldSnapshot:
    VERSION = 2
    #: The top-level payload keys :meth:`capture` writes;
    #: :meth:`from_dict` accepts exactly these.
    KEYS = frozenset((
        "version", "frame_index", "step_index", "time", "culled",
        "body_next_uid", "geom_next_uid", "n_geoms", "n_joints",
        "bodies", "geoms", "joints", "no_collide_pairs", "impulse_cache",
        "contacted_bodies", "cloths", "explosions", "prefractured",
        "actors",
    ))

    def __init__(self, data: dict):
        self.data = data

    # -- capture --------------------------------------------------------
    @classmethod
    def capture(cls, world) -> "WorldSnapshot":
        data = {
            "version": cls.VERSION,
            "frame_index": world.frame_index,
            "step_index": world.step_index,
            "time": world.time,
            "culled": world.culled,
            "body_next_uid": Body._next_uid,
            "geom_next_uid": Geom._next_uid,
            "n_geoms": len(world.geoms),
            "n_joints": len(world.joints),
            "bodies": [b.snapshot_state() for b in world.bodies],
            "geoms": [g.build_state() for g in world.geoms],
            "joints": [j.snapshot_state() for j in world.joints],
            "no_collide_pairs": sorted(
                sorted(pair) for pair in world._no_collide_pairs),
            "impulse_cache": [
                [list(key), list(value)]
                for key, value in sorted(world._impulse_cache.items())
            ],
            "contacted_bodies": sorted(world._contacted_bodies),
            "cloths": [c.snapshot_state() for c in world.cloths],
            "explosions": [e.snapshot_state() for e in world.explosions],
            "prefractured": [pf.snapshot_state()
                             for pf in world._prefracture_registry],
            "actors": [a.snapshot_state() for a in world.actors],
        }
        return cls(data)

    # -- reconstruction -------------------------------------------------
    def _reconstruct(self, world):
        """Rebuild bodies/geoms the snapshot has but ``world`` lacks.

        A fresh build of the captured scene contains only the authored
        structure; objects spawned mid-run before the capture (cannon
        shells, debris) are appended here from the snapshot's build
        records so the positional restore below lines up. The temporary
        uid draws from ``Body()``/``Geom()`` are immaterial: restore
        rewinds both counters to the captured values right after.
        """
        d = self.data
        for state in d["bodies"][len(world.bodies):]:
            body = Body()
            body.uid = state["uid"]
            body.index = len(world.bodies)
            world.bodies.append(body)
        records = d["geoms"]
        for geom, rec in zip(world.geoms, records):
            if geom.uid != rec["uid"]:
                raise SnapshotMismatchError(
                    f"geom uid mismatch: #{geom.uid} vs snapshot "
                    f"#{rec['uid']}")
        for rec in records[len(world.geoms):]:
            slot = rec["body"]
            body = world.bodies[slot] if slot is not None else None
            px, py, pz, qw, qx, qy, qz = rec["static_transform"]
            geom = Geom(
                shape_from_dict(rec["shape"]), body=body,
                transform=Transform(Vec3(px, py, pz),
                                    Quaternion(qw, qx, qy, qz)),
                friction=rec["friction"],
                restitution=rec["restitution"])
            geom.uid = rec["uid"]
            geom.index = len(world.geoms)
            group = rec["collision_group"]
            geom.collision_group = (tuple(group) if isinstance(group, list)
                                    else group)
            world.geoms.append(geom)

    # -- restore --------------------------------------------------------
    def restore(self, world):
        """Rewind ``world`` to the captured state, in place.

        The world must be the one the snapshot was captured from, or a
        build of the same scene: restore matches bodies, joints and
        cloths positionally and verifies body uids. A fresh build may be
        *smaller* than the snapshot (it lacks the shells/debris spawned
        mid-run before the capture); the missing bodies and geoms are
        reconstructed from the snapshot's build records.
        """
        d = self.data
        self._reconstruct(world)
        if len(world.bodies) < len(d["bodies"]) \
                or len(world.geoms) < d["n_geoms"] \
                or len(world.joints) < d["n_joints"] \
                or len(world.cloths) != len(d["cloths"]) \
                or len(world.actors) != len(d["actors"]) \
                or len(world._prefracture_registry) != len(d["prefractured"]):
            raise SnapshotMismatchError(
                "world structure is smaller than the snapshot; was it "
                "captured from this scene?")

        # Objects spawned after the capture are removed, and the global
        # uid counters rewound, so post-restore spawns replay exactly.
        del world.bodies[len(d["bodies"]):]
        del world.geoms[d["n_geoms"]:]
        del world.joints[d["n_joints"]:]
        Body._next_uid = d["body_next_uid"]
        Geom._next_uid = d["geom_next_uid"]

        for body, state in zip(world.bodies, d["bodies"]):
            if body.uid != state["uid"]:
                raise SnapshotMismatchError(
                    f"body uid mismatch: #{body.uid} vs snapshot "
                    f"#{state['uid']}")
            body.restore_state(state)
        for joint, state in zip(world.joints, d["joints"]):
            joint.restore_state(state)
        for cloth, state in zip(world.cloths, d["cloths"]):
            cloth.restore_state(state)

        world._no_collide_pairs = {
            frozenset(pair) for pair in d["no_collide_pairs"]}
        world._impulse_cache = {
            tuple(key): tuple(value)
            for key, value in d["impulse_cache"]}
        world._contacted_bodies = set(d["contacted_bodies"])

        world.explosions = [Explosion.from_state(s)
                            for s in d["explosions"]]
        by_uid = {pf.body.uid: pf for pf in world._prefracture_registry}
        for state in d["prefractured"]:
            pf = by_uid.get(state["body_uid"])
            if pf is None:
                raise SnapshotMismatchError(
                    f"no prefractured entry for body "
                    f"#{state['body_uid']}")
            pf.restore_state(state)
        world.prefractured = [pf for pf in world._prefracture_registry
                              if not pf.broken]

        for actor, state in zip(world.actors, d["actors"]):
            actor.restore_state(state)

        world.frame_index = d["frame_index"]
        world.step_index = d["step_index"]
        world.time = d["time"]
        world.culled = d["culled"]
        return world

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """A deep, independent copy of the JSON-native payload."""
        return json.loads(json.dumps(self.data))

    @classmethod
    def from_dict(cls, data: dict) -> "WorldSnapshot":
        """Check a payload's shape before any world sees it: ``restore``
        rewinds bodies and uid counters before it reads the later keys,
        so a payload missing one would leave a live world half
        rewound."""
        version = data.get("version")
        if version != cls.VERSION:
            raise SnapshotMismatchError(
                f"snapshot version {version!r} != {cls.VERSION}")
        missing = sorted(cls.KEYS - data.keys())
        unknown = sorted(data.keys() - cls.KEYS)
        if missing or unknown:
            raise SnapshotMismatchError(
                f"snapshot keys: missing {missing}, unknown {unknown}")
        return cls(data)

    # -- introspection --------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, WorldSnapshot) and self.data == other.data

    def __repr__(self):
        d = self.data
        return (f"WorldSnapshot(step={d['step_index']},"
                f" bodies={len(d['bodies'])}, joints={d['n_joints']},"
                f" cloths={len(d['cloths'])})")
