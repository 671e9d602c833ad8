"""The World: the five-phase per-step pipeline of the paper's Fig. 1.

    Broadphase -> Narrowphase -> Island Creation -> Island Processing
               -> Cloth

Each ``step()`` advances one ``dt`` sub-step and accumulates operation
counts into ``world.report``; ``step_frame()`` bundles the paper's
30 FPS cadence (three 0.01 s sub-steps) into one fresh
:class:`~repro.profiling.FrameReport`.
"""

from __future__ import annotations

from ..collision import Geom
from ..dynamics import ContactJoint, SolveStats, build_islands
from ..fastpath import kernels as numpy_kernels
from ..fastpath import resolve_backend
from ..geometry import Shape
from ..math3d import Transform, Vec3
from ..profiling import (ISLAND_SWEEPS, FrameReport, task_cost_cloth,
                         task_cost_island)
from . import scalar as scalar_kernels
from .explosions import Explosion, PrefracturedBody

# One kernel set per name in ``fastpath.BACKENDS``: the same phase
# functions, per-object (the oracle) or struct-of-arrays.
_KERNELS = {"scalar": scalar_kernels, "numpy": numpy_kernels}

# Auto-sleep: an island whose every body stays under both speeds (m/s,
# rad/s) for SLEEP_TIME seconds goes to sleep.
SLEEP_LINEAR_THRESHOLD = 0.05
SLEEP_ANGULAR_THRESHOLD = 0.08
SLEEP_TIME = 0.5


class WorldConfig:
    """Tunables for the engine; defaults match the paper's setup."""

    def __init__(self, gravity: Vec3 = None, dt: float = 0.01,
                 substeps_per_frame: int = 3, solver_iterations: int = 20,
                 warm_starting: bool = True,
                 broadphase: str = "sap", auto_sleep: bool = False,
                 linear_damping: float = 0.02,
                 angular_damping: float = 0.05,
                 world_bounds: float = 500.0,
                 ccd: bool = True):
        # Any 3-sequence is accepted; the kernels read a Vec3.
        self.gravity = (Vec3(*gravity) if gravity is not None
                        else Vec3(0, -9.81, 0))
        self.dt = dt
        self.substeps_per_frame = substeps_per_frame
        self.solver_iterations = solver_iterations
        self.warm_starting = warm_starting
        self.broadphase = broadphase
        self.auto_sleep = auto_sleep
        self.linear_damping = linear_damping
        self.angular_damping = angular_damping
        self.world_bounds = world_bounds
        self.ccd = ccd

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-native form (gravity as ``[x, y, z]``); the config half
        of the :class:`repro.api.SessionSpec` wire format."""
        out = {name: getattr(self, name) for name in self.field_names()}
        out["gravity"] = list(self.gravity)
        return out

    def replace(self, **overrides) -> "WorldConfig":
        """A copy with ``overrides`` applied (``dataclasses.replace``
        idiom; raises on unknown field names)."""
        data = self.to_dict()
        unknown = set(overrides) - set(data)
        if unknown:
            raise TypeError(
                f"unknown WorldConfig fields: {sorted(unknown)}")
        data.update(overrides)
        return WorldConfig(**data)

    @staticmethod
    def field_names() -> tuple:
        return ("gravity", "dt", "substeps_per_frame", "solver_iterations",
                "warm_starting", "broadphase", "auto_sleep",
                "linear_damping", "angular_damping", "world_bounds", "ccd")


class World:
    def __init__(self, config: WorldConfig = None, backend: str = None):
        # tests/test_resilience.py classifies every attribute as
        # restored by a WorldSnapshot or excluded from it, with a reason.
        self.config = config if config is not None else WorldConfig()
        # ``backend`` names the kernel set every phase of ``step`` runs
        # on: ``"scalar"`` is the per-object reference in
        # ``engine.scalar``, ``"numpy"`` the bit-identical SoA kernels
        # of ``repro.fastpath``.  ``None`` defers to $REPRO_BACKEND.
        self.backend = resolve_backend(backend)
        self.kernels = _KERNELS[self.backend]
        self.broadphase = self.kernels.make_broadphase(
            self.config.broadphase)
        self.bodies = []
        self.geoms = []
        self.joints = []
        self.cloths = []
        self.explosions = []
        self.prefractured = []
        # Every prefractured entry ever registered; ``prefractured``
        # holds only the untriggered ones (spent entries are pruned from
        # the per-step scan but stay here for checkpoint restore).
        self._prefracture_registry = []
        self.culled = 0  # bodies disabled by the kill-bounds cull
        # Stateful scene actors (cannons, ...) that must roll back with
        # the world for checkpoint/restore to replay bit-identically.
        self.actors = []
        self.report = None
        self.frame_index = 0
        self.step_index = 0
        self.time = 0.0
        self._no_collide_pairs = set()  # frozenset body-uid pairs
        self._impulse_cache = {}
        self._contacted_bodies = set()  # uids touched last step
        # Per-step health signals read by repro.resilience.StepWatchdog.
        # Each is fully overwritten by the next step before any read,
        # so a restored world regenerates them on its first step.
        self.last_max_penetration = 0.0
        self.last_penetration_uids = ()
        self.last_island_residuals = []  # [(residual, [body uids])]
        self.last_blast_bodies = 0  # bodies pushed by explosions

    # -- construction ---------------------------------------------------
    def add_body(self, body):
        if body.index < 0 or body.index >= len(self.bodies) \
                or self.bodies[body.index] is not body:
            body.index = len(self.bodies)
            self.bodies.append(body)
        return body

    def attach(self, body, shape: Shape, density: float = 1000.0,
               friction: float = 0.5, restitution: float = 0.0) -> Geom:
        """Add ``body`` (if new), give it mass from ``shape``, and
        register the collision geom."""
        self.add_body(body)
        body.set_mass_from_shape(shape, density)
        geom = Geom(shape, body=body, friction=friction,
                    restitution=restitution)
        geom.index = len(self.geoms)
        self.geoms.append(geom)
        return geom

    def add_static_geom(self, shape_or_geom, friction: float = 0.8,
                        restitution: float = 0.0,
                        offset: Transform = None) -> Geom:
        if isinstance(shape_or_geom, Geom):
            geom = shape_or_geom
            if offset is not None:
                geom.static_transform = offset
        else:
            geom = Geom(shape_or_geom, body=None, transform=offset,
                        friction=friction, restitution=restitution)
        geom.index = len(self.geoms)
        self.geoms.append(geom)
        return geom

    def add_joint(self, joint):
        self.joints.append(joint)
        a, b = joint.connected_bodies()
        if a is not None and b is not None:
            self._no_collide_pairs.add(frozenset((a.uid, b.uid)))
        return joint

    def add_cloth(self, cloth):
        self.cloths.append(cloth)
        return cloth

    def explode(self, center: Vec3, radius: float,
                impulse: float) -> Explosion:
        boom = Explosion(center, radius, impulse)
        self.explosions.append(boom)
        return boom

    def add_prefractured(self, body, geom, debris) -> PrefracturedBody:
        """Register a prefractured object; debris bodies/geoms must
        already be attached (they get disabled until fracture)."""
        pf = PrefracturedBody(self, body, geom, debris)
        self.prefractured.append(pf)
        self._prefracture_registry.append(pf)
        return pf

    @property
    def prefracture_registry(self):
        """Every prefractured object ever registered, broken or not —
        ``prefractured`` holds only the live, not-yet-broken ones."""
        return self._prefracture_registry

    def register_actor(self, actor):
        """Track a stateful scene actor (``snapshot_state`` /
        ``restore_state``) so checkpoints include it."""
        self.actors.append(actor)
        return actor

    # -- queries --------------------------------------------------------
    def dynamic_bodies(self):
        return [b for b in self.bodies if not b.is_static and b.enabled]

    def body_had_contact(self, body) -> bool:
        return body.uid in self._contacted_bodies

    def _pair_filtered(self, ga: Geom, gb: Geom) -> bool:
        ba, bb = ga.body, gb.body
        if ba is not None and ba is bb:
            return True  # two geoms on the same body
        if ba is not None and bb is not None:
            if frozenset((ba.uid, bb.uid)) in self._no_collide_pairs:
                return True
        if (ga.collision_group is not None
                and ga.collision_group == gb.collision_group):
            return True
        return False

    # -- stepping -------------------------------------------------------
    def step_frame(self, driver=None, stepper=None) -> FrameReport:
        """One rendered frame: fresh report + the configured sub-steps.

        ``driver`` (a benchmark's zero-argument callback: cannons,
        throttles, explosion schedules) runs before each sub-step.
        ``stepper``, when given, replaces the driver + ``step()`` pair
        and receives the driver; pass a ``StepWatchdog.step`` for a
        guarded frame.
        """
        self.report = FrameReport(self.frame_index)
        for _ in range(self.config.substeps_per_frame):
            if stepper is not None:
                stepper(driver)
            else:
                if driver is not None:
                    driver()
                self.step()
        self.frame_index += 1
        return self.report

    def step(self):
        """Advance one ``dt`` sub-step through the five-phase pipeline.

        Every island's rows are built before any island solves, and the
        kernel set's ``solve`` sweeps them all in one call.  That only
        hoists work across *disjoint* islands, so the trajectory is
        bit-identical to building and solving island by island.

        ``_finish_islands`` likewise end-steps, integrates, accounts
        and sleep-tests once per world, not island by island, which is
        exact because: ``integrate`` still visits bodies in island
        order, so each CCD sweep sees the poses and ``enabled`` flags
        it saw before; ``joint.end_step`` reads only its own impulses
        and writes only its joint's flags; ``_update_sleep`` writes
        only its own island's ``sleeping`` flags and velocities, which
        no other island's integration reads.  Counters sum integers.
        """
        cfg = self.config
        if self.report is None:
            self.report = FrameReport(self.frame_index)
        report = self.report
        report.steps += 1
        self._apply_explosions()
        live_geoms = [g for g in self.geoms if g.enabled]
        pairs = self._broadphase_pairs(live_geoms)
        contacts = self.kernels.collide(self, pairs, report)
        islands = self._create_islands(contacts)

        # Phases 4a-4b: forces, constraint-row setup, solve.  Islands are
        # body-disjoint, so building every island's rows (including
        # warm-start impulses, which only touch the island's own
        # bodies) before any island solves reads exactly the state an
        # island-by-island loop would read.
        self.kernels.apply_forces(self, cfg.dt)
        live_islands = islands
        if cfg.auto_sleep:
            live_islands = [
                island for island in islands
                if not all(b.sleeping for b in island.bodies)]
            report.count("island_processing",
                         skipped_islands=len(islands) - len(live_islands))
        # An island without constraints has no rows to build or solve;
        # ``_finish_islands`` accounts for it as a zero-row solve.
        constrained = [i for i in live_islands if i.constraint_count()]
        built = self.kernels.build_rows(self, constrained, cfg.dt)
        stats_list = self.kernels.solve(built, cfg.solver_iterations)
        self._finish_islands(live_islands, stats_list)
        self._step_cloths(live_geoms)
        self.step_index += 1
        self.time += cfg.dt

    def _apply_explosions(self):
        """Pre-phase: explosions push bodies and trigger prefracture.
        Spent blasts and triggered prefracture entries are pruned so
        long runs don't scan an ever-growing list of dead events."""
        self.last_blast_bodies = 0
        if self.explosions:
            alive = []
            for boom in self.explosions:
                if boom.active:
                    self.last_blast_bodies += boom.apply(self)
                if boom.active:
                    alive.append(boom)
            self.explosions = alive
        if self.prefractured:
            self.prefractured = [pf for pf in self.prefractured
                                 if not pf.broken]

    def _broadphase_pairs(self, live_geoms):
        """Phase 1: candidate geom pairs."""
        report = self.report
        pairs = self.broadphase.pairs(live_geoms)
        report.count(
            "broadphase",
            geoms=len(live_geoms),
            pairs=len(pairs),
            tests=getattr(self.broadphase, "tests", 0),
            swaps=getattr(self.broadphase, "swaps", 0),
        )
        # Memory-touch trace: the sweep walks geom records in spatial
        # (not allocation) order — the pointer-chasing access pattern
        # the paper blames for broadphase cache behavior.
        sweep_order = getattr(self.broadphase, "last_order", None)
        if sweep_order is None:
            sweep_order = [g.uid for g in live_geoms]
        sweep_order = tuple(sweep_order)  # one copy, shared by both kinds
        report.touch("broadphase", "geom", sweep_order)
        report.touch("broadphase", "endpoint", sweep_order)
        return pairs

    def _create_islands(self, contacts):
        """Phase 3: islands over the contact and joint graph."""
        report = self.report
        contact_joints = [
            ContactJoint(c) for c in contacts
            if self._contact_is_dynamic(c)
        ]
        # Joints lose their effect when either endpoint is disabled
        # (kill-bounds cull, quarantine, prefracture): solving against a
        # frozen body would yank the live one toward a corpse.
        active_joint_ids = [
            idx for idx, j in enumerate(self.joints)
            if j.enabled and not j.broken
            and self._joint_bodies_enabled(j)]
        active_joints = [self.joints[idx] for idx in active_joint_ids]
        islands, merges = build_islands(self.bodies, contact_joints,
                                        active_joints)
        dynamic_uids = [b.uid for b in self.dynamic_bodies()]
        report.count(
            "island_creation",
            bodies=len(dynamic_uids),
            unions=merges,
            islands=len(islands),
            constraints=len(contact_joints) + len(active_joints),
        )
        report.touch("island_creation", "body", dynamic_uids)
        report.touch("island_creation", "contact",
                     range(len(contacts)))
        report.touch("island_creation", "joint", active_joint_ids)
        return islands

    def _finish_islands(self, islands, stats_list):
        """Phase 4c, one pass per world: joint end-step and impulse
        cache, then one ``integrate`` over every island's bodies in
        island order and one report entry of each kind.  ``stats_list``
        holds the solve stats of the islands that have constraints."""
        cfg = self.config
        report = self.report
        dt = cfg.dt
        unconstrained = SolveStats(0, cfg.solver_iterations, 0, 0.0, 0.0)
        solved = iter(stats_list)
        new_cache = {}
        residuals = self.last_island_residuals = []
        bodies, row_counts, uid_lists, costs = [], [], [], []
        rows = row_updates = 0
        for island in islands:
            stats = (next(solved) if island.constraint_count()
                     else unconstrained)
            uids = [b.uid for b in island.bodies]
            residuals.append((stats.residual, uids))
            for joint in island.joints:
                joint.end_step(dt)
            for cj in island.contact_joints:
                new_cache[cj.cache_key] = cj.impulses
            bodies.extend(island.bodies)
            row_counts.append(stats.rows)
            uid_lists.append(uids)
            costs.append(task_cost_island(
                stats.rows, stats.row_updates, len(uids)))
            rows += stats.rows
            row_updates += stats.row_updates
        self._impulse_cache = new_cache
        self.kernels.integrate(self, bodies, dt)
        report.count("island_processing", rows=rows,
                     row_updates=row_updates, integrations=len(bodies))
        report.add_tasks("island_processing", costs)
        # The PGS solver sweeps each island's rows and body records once
        # per iteration — the repeated-sweep footprint that makes island
        # caching pay off (Fig. 3); ``memtrace`` expands the one record.
        report.touch("island_processing", ISLAND_SWEEPS,
                     (row_counts, uid_lists),
                     repeat=cfg.solver_iterations, writes=True)
        if cfg.auto_sleep:
            for island in islands:
                self._update_sleep(island, dt)

    def _step_cloths(self, live_geoms):
        """Phase 5: cloth."""
        report = self.report
        if not self.cloths:
            report.count("cloth", cloths=0)
            return
        cloth_colliders = [
            g for g in live_geoms
            if g.shape.kind in ("sphere", "box")
        ]
        all_stats = self.kernels.step_cloths(self, cloth_colliders,
                                             self.config.dt)
        vert_base = 0
        for cloth, stats in zip(self.cloths, all_stats):
            report.touch("cloth", "clothvert",
                         range(vert_base,
                               vert_base + cloth.num_vertices),
                         repeat=cloth.ITERATIONS, writes=True)
            vert_base += cloth.num_vertices
            report.count(
                "cloth",
                cloths=1,
                vertices=stats["vertices"],
                constraint_updates=stats["constraint_updates"],
                projections=stats["projections"],
                contacts=stats["contacts"],
            )
            report.add_task("cloth", task_cost_cloth(
                stats["vertices"], stats["constraint_updates"],
                stats["projections"]))

    # -- internals ------------------------------------------------------
    @staticmethod
    def _joint_bodies_enabled(joint) -> bool:
        a, b = joint.connected_bodies()
        return ((a is None or a.enabled)
                and (b is None or b.enabled))

    @staticmethod
    def _contact_is_dynamic(contact) -> bool:
        for geom in (contact.geom_a, contact.geom_b):
            body = geom.body
            if body is not None and not body.is_static and body.enabled:
                return True
        return False

    def _update_sleep(self, island, dt: float):
        quiet = all(
            (b.linear_velocity.length() < SLEEP_LINEAR_THRESHOLD
             and b.angular_velocity.length() < SLEEP_ANGULAR_THRESHOLD)
            for b in island.bodies
        )
        if quiet:
            for b in island.bodies:
                b.sleep_timer += dt
                if b.sleep_timer >= SLEEP_TIME:
                    b.sleeping = True
                    b.linear_velocity = Vec3()
                    b.angular_velocity = Vec3()
        else:
            for b in island.bodies:
                b.wake()
