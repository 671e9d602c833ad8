"""repro.api: the session-first public API.

One spec, one session, one way in:

* :class:`SessionSpec` — a JSON-serializable description of a
  simulation (scenario name, config overrides, backend, watchdog
  policy). Because it is JSON-native it doubles as the
  ``repro.serve`` wire format.
* :class:`Session` — ``Session.create(spec)`` builds the world and its
  driver, ``session.step(n)`` advances rendered frames,
  ``session.checkpoint()`` / ``Session.restore(payload)`` round-trip
  the full state through JSON — the live-migration primitive.
* :class:`SessionGroup` — a dynamic fleet of sessions, stepped
  frame-major, each member through its own :meth:`Session.step`.
* :func:`run_scenario` — the harness entrypoint: run a spec for some
  frames and wrap the result as a ``BenchmarkRun``.

Sessions default to **uid isolation**: each session's world draws body
and geom uids from a private counter starting at zero, so an identical
build in *any* process yields identical uids — the property that makes
checkpoint → migrate → restore replay bit-identically across process
boundaries.
"""

from __future__ import annotations

import contextlib
import hashlib

from .collision import Geom
from .dynamics import Body
from .engine import WorldConfig
from .fastpath import resolve_backend

__all__ = ["SessionSpec", "Session", "SessionGroup", "UidScope",
           "run_scenario"]


class UidScope:
    """A private pair of body/geom uid counters.

    ``installed()`` swaps the scope's counters into the global
    ``Body._next_uid`` / ``Geom._next_uid`` slots for the duration of a
    ``with`` block and saves the advanced values back on exit, restoring
    the previous globals. Everything that can draw or rewind uids on a
    session's behalf — scene build, driver ticks (cannons spawn shells),
    guarded steps (rollback rewinds counters), checkpoint/restore — runs
    inside the owning session's scope, so sessions sharing a process
    never interleave uid draws.
    """

    def __init__(self, body_next: int = 0, geom_next: int = 0):
        self.body_next = body_next
        self.geom_next = geom_next

    @contextlib.contextmanager
    def installed(self):
        prev = (Body._next_uid, Geom._next_uid)
        Body._next_uid = self.body_next
        Geom._next_uid = self.geom_next
        try:
            yield self
        finally:
            self.body_next = Body._next_uid
            self.geom_next = Geom._next_uid
            Body._next_uid, Geom._next_uid = prev

    def __repr__(self):
        return f"UidScope(body={self.body_next}, geom={self.geom_next})"


class SessionSpec:
    """JSON-serializable description of one simulation session.

    ``config`` holds :class:`~repro.engine.WorldConfig` field overrides
    applied to the scenario's world after build. ``watchdog`` steps
    under :class:`~repro.resilience.StepWatchdog` at its module
    thresholds. ``backend`` is pinned by
    :meth:`resolved` so the same spec builds the same world on any
    host.
    """

    def __init__(self, scenario: str, scale: float = 1.0, seed: int = 0,
                 backend: str = None, config=None,
                 watchdog: bool = False):
        self.scenario = scenario
        self.scale = float(scale)
        self.seed = int(seed)
        self.backend = backend
        self.config = self._normalize_config(config)
        self.watchdog = bool(watchdog)

    @staticmethod
    def _normalize_config(config):
        if config is None:
            return None
        unknown = set(config) - set(WorldConfig.field_names())
        if unknown:
            raise TypeError(
                f"unknown WorldConfig fields: {sorted(unknown)}")
        return dict(config)

    def resolved(self) -> "SessionSpec":
        """A copy with the backend pinned to a concrete name."""
        data = self.to_dict()
        data["backend"] = resolve_backend(self.backend)
        return SessionSpec.from_dict(data)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "backend": self.backend,
            "config": dict(self.config) if self.config else None,
            "watchdog": self.watchdog,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSpec":
        return cls(**data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SessionSpec)
                and self.to_dict() == other.to_dict())

    def __repr__(self):
        bits = [repr(self.scenario), f"scale={self.scale}",
                f"seed={self.seed}"]
        if self.backend:
            bits.append(f"backend={self.backend!r}")
        if self.watchdog:
            bits.append("watchdog=True")
        return f"SessionSpec({', '.join(bits)})"


def _apply_config_overrides(world, overrides):
    """Mutate ``world.config`` per the spec, pre-first-step.

    Scenario builders own world *construction*; the spec owns the
    tunables. A broadphase override swaps in a fresh instance (the old
    one holds no sweep state yet) made by the world's kernel set.
    """
    if not overrides:
        return
    world.config = world.config.replace(**overrides)
    if "broadphase" in overrides:
        world.broadphase = world.kernels.make_broadphase(
            world.config.broadphase)


class Session:
    """A running simulation: a world, its driver, and its policies.

    Create via :meth:`create` (fresh) or :meth:`restore` (from a
    :meth:`checkpoint` payload — possibly produced in another process).
    """

    def __init__(self, spec, world, driver, scope, guard=None):
        self.spec = spec
        self.world = world
        self.reports = []
        self._driver = driver
        self._scope = scope
        self._guard = guard
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(cls, spec: SessionSpec,
               isolate_uids: bool = True) -> "Session":
        """Build the scenario named by ``spec`` and wire its policies.

        ``isolate_uids=False`` draws uids from the process-global
        counters (the behavior ``run_scenario`` keeps so recorded
        trajectories are unchanged); such a session can still checkpoint,
        because the payload records the uid base the build started from.
        """
        spec = spec.resolved()
        if isolate_uids:
            scope = UidScope()
        else:
            scope = UidScope(Body._next_uid, Geom._next_uid)
        return cls._build(spec, scope, passthrough=not isolate_uids)

    @classmethod
    def restore(cls, payload: dict) -> "Session":
        """Rebuild a session from a :meth:`checkpoint` payload.

        The scenario is rebuilt from the embedded spec under the
        recorded uid base (so the fresh build draws the original uids),
        then the snapshot replays the captured state onto it — including
        reconstruction of mid-run spawns the fresh build lacks. The
        restored session replays bit-identically to the original.
        """
        from .resilience import WorldSnapshot
        spec = SessionSpec.from_dict(payload["spec"])
        snapshot = WorldSnapshot.from_dict(payload["snapshot"])
        base = payload["uid_base"]
        scope = UidScope(base[0], base[1])
        session = cls._build(spec, scope)
        with session._scope.installed():
            snapshot.restore(session.world)
        return session

    @classmethod
    def _build(cls, spec, scope, passthrough: bool = False):
        from .workloads.benchmarks import get_benchmark
        bench = get_benchmark(spec.scenario)
        uid_base = (scope.body_next, scope.geom_next)
        # Passthrough sessions draw uids straight from the process
        # globals, build included: installing the scope would roll the
        # globals back on exit, so uids drawn by the driver later
        # (cannons spawn shells) would collide with the built bodies.
        installed = (contextlib.nullcontext() if passthrough
                     else scope.installed())
        with installed:
            world, driver = bench.build(scale=spec.scale, seed=spec.seed,
                                        backend=spec.backend)
            _apply_config_overrides(world, spec.config)

            guard = None
            if spec.watchdog:
                from .resilience import StepWatchdog
                guard = StepWatchdog(world)

        session = cls(spec, world, driver, scope, guard=guard)
        session._uid_base = uid_base
        if passthrough:
            session._installed = contextlib.nullcontext
        return session

    def close(self):
        """Mark the session dead; further steps raise."""
        self._closed = True

    # -- stepping -------------------------------------------------------
    def _installed(self):
        return self._scope.installed()

    def step(self, frames: int = 1):
        """Advance ``frames`` rendered frames; returns their reports."""
        if self._closed:
            raise RuntimeError("session is closed")
        stepper = self._guard.step if self._guard is not None else None
        with self._installed():
            new_reports = [self.world.step_frame(self._driver, stepper)
                           for _ in range(frames)]
        self.reports.extend(new_reports)
        return new_reports

    # -- checkpoint / migration -----------------------------------------
    def checkpoint(self) -> dict:
        """A JSON-native payload: spec + uid base + full world snapshot.

        Feed to :meth:`restore` (any process) to resume the session.
        """
        from .resilience import WorldSnapshot
        with self._installed():
            snapshot = WorldSnapshot.capture(self.world)
        return {
            "spec": self.spec.to_dict(),
            "uid_base": list(self._uid_base),
            "snapshot": snapshot.to_dict(),
        }

    # -- observability --------------------------------------------------
    @property
    def health(self):
        """The watchdog's incident log, or None when unguarded."""
        return self._guard.health if self._guard is not None else None

    def state_digest(self) -> str:
        """Deterministic hash of every body's pose and velocity.

        Two bit-identical worlds — e.g. a migrated session and its
        unmigrated twin — produce equal digests in any process.
        """
        hasher = hashlib.sha256()
        for body in self.world.bodies:
            p, q = body.position, body.orientation
            v, w = body.linear_velocity, body.angular_velocity
            hasher.update(repr((body.uid, body.enabled,
                                p.x, p.y, p.z, q.w, q.x, q.y, q.z,
                                v.x, v.y, v.z, w.x, w.y, w.z))
                          .encode())
        return hasher.hexdigest()

    def describe(self) -> dict:
        """JSON summary for status queries (the serve ``query`` verb)."""
        world = self.world
        return {
            "scenario": self.spec.scenario,
            "backend": world.backend,
            "frame_index": world.frame_index,
            "step_index": world.step_index,
            "time": world.time,
            "bodies": len(world.bodies),
            "sleeping": sum(1 for b in world.bodies if b.sleeping),
            "culled": world.culled,
            "watchdog_events": (len(self._guard.health)
                                if self._guard else 0),
            "digest": self.state_digest(),
        }

    def __repr__(self):
        return (f"Session({self.spec.scenario!r},"
                f" frame={self.world.frame_index},"
                f" bodies={len(self.world.bodies)})")


class SessionGroup:
    """A dynamic fleet of sessions that step together.

    ``step`` is frame-major: every member advances one rendered frame,
    in join order, through its own :meth:`Session.step` before any
    member starts the next, so each member lands on its solo twin's
    digest, guarded or not. Sessions join and leave between frames
    (``add`` / ``remove``).
    """

    def __init__(self, sessions=()):
        self.sessions = []
        for session in sessions:
            self.add(session)

    def __len__(self):
        return len(self.sessions)

    def __iter__(self):
        return iter(self.sessions)

    def add(self, session: Session) -> Session:
        if session in self.sessions:
            raise ValueError("session already in group")
        self.sessions.append(session)
        return session

    def remove(self, session: Session) -> Session:
        self.sessions.remove(session)
        return session

    def step(self, frames: int = 1):
        """Advance every member session ``frames`` rendered frames."""
        for _ in range(frames):
            for session in self.sessions:
                session.step(1)


def run_scenario(spec, frames: int = 5, measure_from: int = None):
    """Run a spec to completion and wrap it as a ``BenchmarkRun``.

    Driven by a :class:`SessionSpec`, so the watchdog and backend
    policies travel as data. The mean of the frames from
    ``measure_from`` on (default: the last two) is the run's measured
    frame. Uses the process-global uid counters so recorded
    trajectories are unchanged.
    """
    from .workloads.benchmarks import BenchmarkRun
    if measure_from is None:
        measure_from = max(0, frames - 2)
    measure_from = min(measure_from, max(0, frames - 1))
    session = Session.create(spec, isolate_uids=False)
    session.step(frames)
    return BenchmarkRun(
        spec.scenario, spec.scale, spec.seed, session.world,
        session.reports, measure_from, health=session.health)
