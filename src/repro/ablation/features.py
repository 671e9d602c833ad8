"""The feature registry: every toggleable engine/arch mechanism.

A :class:`Feature` names one mechanism the engine (or the modeled
machine) can run without, and declares the *spec patch* that flips it
relative to the registry baseline — the plain scalar-backend scenario
with default :class:`~repro.engine.WorldConfig` tunables.  Two kinds:

``engine``
    The patch changes how the simulation itself runs (a
    ``WorldConfig`` override, the backend, or the watchdog).  Toggled
    runs re-simulate and are compared against the feature's base run.
``arch``
    No re-simulation: the baseline run's recorded
    :class:`~repro.profiling.FrameReport` is re-priced through two
    :class:`~repro.arch.ParallaxMachine` variants (``arch_keys``), so
    the feature's cost is a modeled-FPS delta in the style of the
    paper's L2/prefetch studies.

Either way the score is a modeled-FPS delta on the paper's machine,
so it is exact and repeatable (``docs/ablation.md``).

``default_on`` records whether the patch *disables* a mechanism that
is on by default (warm starting, CCD, SAP, L2 partitioning) or
*enables* one that is off by default (auto-sleep, the numpy fast path,
the watchdog, prefetch); importance scores are reported with the same
sign convention either way (positive Δ = the toggled state is faster
on the modeled machine).
"""

from __future__ import annotations

from ..engine import WorldConfig

__all__ = ["Feature", "FeatureRegistry", "default_registry"]


class Feature:
    """One toggleable mechanism and how to flip it."""

    def __init__(self, name: str, description: str, kind: str = "engine",
                 patch: dict = None, base_patch: dict = None,
                 workloads=None, default_on: bool = True,
                 arch_keys: tuple = None):
        if kind not in ("engine", "arch"):
            raise ValueError(f"unknown feature kind {kind!r}")
        self.name = name
        self.description = description
        self.kind = kind
        #: Spec patch for the TOGGLED state: ``config`` (WorldConfig
        #: overrides), ``backend``, ``watchdog``.
        self.patch = dict(patch or {})
        #: Spec patch for this feature's reference state (defaults to
        #: the global baseline — empty patch).
        self.base_patch = dict(base_patch or {})
        #: Applicable workload names, or ``None`` for every workload.
        self.workloads = None if workloads is None else tuple(workloads)
        self.default_on = default_on
        #: For ``kind="arch"``: ``(base_metric_key, toggled_metric_key)``
        #: into the baseline run's modeled-FPS variants.
        self.arch_keys = arch_keys
        self._validate()

    def _validate(self):
        known_keys = {"config", "backend", "watchdog"}
        for patch in (self.patch, self.base_patch):
            unknown = set(patch) - known_keys
            if unknown:
                raise ValueError(
                    f"feature {self.name!r}: unknown patch keys "
                    f"{sorted(unknown)}")
            config = patch.get("config")
            if config:
                bad = set(config) - set(WorldConfig.field_names())
                if bad:
                    raise ValueError(
                        f"feature {self.name!r}: unknown WorldConfig "
                        f"fields {sorted(bad)}")
        if self.kind == "arch" and not self.arch_keys:
            raise ValueError(
                f"arch feature {self.name!r} needs arch_keys")
        if self.kind != "arch" and self.arch_keys:
            raise ValueError(
                f"feature {self.name!r}: arch_keys is arch-only")

    def applicable(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "kind": self.kind,
            "patch": dict(self.patch),
            "base_patch": dict(self.base_patch),
            "workloads": (None if self.workloads is None
                          else list(self.workloads)),
            "default_on": self.default_on,
            "arch_keys": (None if self.arch_keys is None
                          else list(self.arch_keys)),
        }

    def __repr__(self):
        return f"Feature({self.name!r}, kind={self.kind!r})"


class FeatureRegistry:
    """Ordered, name-unique collection of :class:`Feature` entries."""

    def __init__(self, features=()):
        self._features = {}
        for feature in features:
            self.register(feature)

    def register(self, feature: Feature) -> Feature:
        if feature.name in self._features:
            raise ValueError(
                f"feature {feature.name!r} already registered")
        self._features[feature.name] = feature
        return feature

    def names(self):
        return list(self._features)

    def get(self, name: str) -> Feature:
        try:
            return self._features[name]
        except KeyError:
            known = ", ".join(self._features)
            raise KeyError(
                f"unknown feature {name!r}; known: {known}") from None

    def select(self, names=None):
        """Features for ``names`` (``None`` / ``"all"`` = every one)."""
        if names is None or names == "all":
            return list(self._features.values())
        if isinstance(names, str):
            names = [n.strip() for n in names.split(",") if n.strip()]
        return [self.get(name) for name in names]

    def __len__(self):
        return len(self._features)

    def __iter__(self):
        return iter(self._features.values())

    def __contains__(self, name):
        return name in self._features

    def __repr__(self):
        return f"FeatureRegistry({', '.join(self._features)})"


def default_registry() -> FeatureRegistry:
    """Every toggleable feature the engine and arch layers expose."""
    return FeatureRegistry([
        Feature(
            "warm_start",
            "seed contact rows with last step's impulses "
            "(WorldConfig.warm_starting)",
            patch={"config": {"warm_starting": False}}),
        Feature(
            "autosleep",
            "skip the solver for quiescent islands "
            "(WorldConfig.auto_sleep; off by default)",
            patch={"config": {"auto_sleep": True}},
            default_on=False),
        Feature(
            "ccd",
            "swept-clamp fast movers so bullets cannot tunnel "
            "(WorldConfig.ccd)",
            patch={"config": {"ccd": False}}),
        Feature(
            "broadphase_sap",
            "incremental sweep-and-prune broadphase vs the brute-force "
            "O(n^2) ablation baseline (WorldConfig.broadphase)",
            patch={"config": {"broadphase": "brute"}}),
        Feature(
            "numpy_fastpath",
            "struct-of-arrays numpy kernels for the four hot loops; "
            "bit-identical to the scalar oracle by contract",
            patch={"backend": "numpy"},
            default_on=False),
        Feature(
            "watchdog",
            "guarded stepping: per-sub-step health validation plus the "
            "rollback-and-degrade ladder (repro.resilience)",
            patch={"watchdog": True},
            default_on=False),
        Feature(
            "l2_partitioning",
            "application-aware way-partitioned L2 (paper scheme) vs one "
            "shared 12MB cache, priced on the recorded touch trace",
            kind="arch",
            arch_keys=("modeled_fps_paper", "modeled_fps_shared_l2")),
        Feature(
            "prefetch",
            "next-4-line L2 prefetch on the recorded touch trace, "
            "credited at the exposed memory latency",
            kind="arch",
            default_on=False,
            arch_keys=("modeled_fps_paper", "modeled_fps_prefetch")),
    ])
