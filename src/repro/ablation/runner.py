"""Ablation run matrix: generation, parallel execution, importance.

The :class:`AblationRunner` expands a :class:`FeatureRegistry` into the
baseline-plus-one-off run matrix, executes every *unique*
configuration exactly once — the baseline is shared by most features,
so the matrix dedups hard — in parallel via :mod:`multiprocessing`,
and folds the per-run metrics into per-feature importance scores.
Every metric is a pure function of the request, so two runs of the same
matrix (on any ``jobs``) give equal payloads:

* ``delta_modeled_fps_pct`` — change in the frame rate of the paper's
  machine (4 CG cores, partitioned 12MB L2) on the run's recorded
  frame report: what the toggle costs in modeled instructions and
  misses, not in host seconds (those are ``bench/run.py``'s);
* ``delta_row_updates_pct`` — solver work change (PGS row relaxations
  per frame);
* ``digest_changed`` — whether toggling the feature changes the
  trajectory at all (:meth:`repro.api.Session.state_digest`).

Arch-kind features never re-simulate: the baseline run's report is
also priced on two machine variants (one shared L2, next-4-line
prefetch) and the feature diffs a pair of those, through the same
``_deltas`` as everything else.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform

from .features import FeatureRegistry, default_registry

__all__ = ["AblationConfig", "AblationRunner", "SCHEMA",
           "TABLE3_WORKLOADS", "make_report"]

SCHEMA = "repro-ablation-report/2"

TABLE3_WORKLOADS = ("periodic", "ragdoll", "continuous", "breakable",
                    "deformable", "explosions", "highspeed", "mix")

PREFETCH_DEPTH = 4
PREFETCH_L2_BYTES = 1024 * 1024


class AblationConfig:
    """What to run: features x workloads at one scale/frames/seed."""

    def __init__(self, features="all", workloads="table3",
                 scale: float = 0.03, frames: int = 4, seed: int = 0,
                 measure_from: int = None, jobs: int = None):
        self.features = features
        self.workloads = self._resolve_workloads(workloads)
        self.scale = float(scale)
        self.frames = int(frames)
        self.seed = int(seed)
        self.measure_from = (max(0, self.frames - 2)
                             if measure_from is None else measure_from)
        self.jobs = jobs

    @staticmethod
    def _resolve_workloads(workloads):
        if workloads in (None, "all", "table3"):
            return list(TABLE3_WORKLOADS)
        if isinstance(workloads, str):
            workloads = [w.strip() for w in workloads.split(",")
                         if w.strip()]
        unknown = set(workloads) - set(TABLE3_WORKLOADS)
        if unknown:
            raise ValueError(
                f"unknown workloads: {sorted(unknown)}; choose from "
                f"{', '.join(TABLE3_WORKLOADS)}")
        return list(workloads)

    def resolved_jobs(self) -> int:
        if self.jobs:
            return max(1, int(self.jobs))
        return max(1, min(4, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# request execution (multiprocessing workers import this module)


def _request_key(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


def _prefetch_coverage(measured) -> dict:
    """phase -> fraction of L2 misses a next-N-line prefetcher covers,
    measured by replaying the recorded touch trace through an exact
    :class:`~repro.arch.cache.CacheSim` with and without prefetch."""
    from ..arch.cache import CacheSim
    from ..profiling import memtrace
    from ..profiling.report import PHASES

    coverage = {}
    for phase in PHASES:
        blocks = [b for b, _p, _w in memtrace.expand(measured, (phase,))]
        if not blocks:
            continue
        base = CacheSim(PREFETCH_L2_BYTES).run(blocks)
        if base.misses <= 0:
            continue
        pf = CacheSim(PREFETCH_L2_BYTES,
                      prefetch_depth=PREFETCH_DEPTH).run(blocks)
        coverage[phase] = max(
            0.0, (base.misses - pf.misses) / base.misses)
    return coverage


def _modeled(measured, arch: bool) -> dict:
    """Modeled FPS of ``measured`` on the paper's machine and, for the
    baseline run (``arch``), on the variants arch features diff."""
    from ..arch import L2Partitioning, ParallaxConfig, ParallaxMachine

    def fps(l2, **kwargs):
        machine = ParallaxMachine(ParallaxConfig(cg_cores=4, l2=l2,
                                                 **kwargs))
        return 1.0 / machine.frame_seconds(measured, threads=4)

    modeled = {"modeled_fps_paper": fps(L2Partitioning.paper_scheme())}
    if arch:
        coverage = _prefetch_coverage(measured)
        modeled.update({
            "modeled_fps_shared_l2": fps(
                L2Partitioning.shared(12 * 1024 * 1024)),
            "modeled_fps_prefetch": fps(L2Partitioning.paper_scheme(),
                                        prefetch_coverage=coverage),
            "prefetch_coverage": coverage,
        })
    return modeled


def execute_request(request: dict) -> dict:
    """Run one configuration and return its plain-dict metrics.

    Top-level so :mod:`multiprocessing` workers can pickle it.  The
    request is self-contained — a resolved ``SessionSpec`` dict plus
    ``frames`` / ``measure_from`` / ``arch`` — and the session draws
    its uids from a private scope, so the metrics depend on the
    request alone.
    """
    from ..api import Session, SessionSpec
    from ..profiling import mean_report
    from ..workloads import validate_world

    session = Session.create(SessionSpec.from_dict(request["spec"]))
    reports = session.step(request["frames"])
    measured = mean_report(reports[request["measure_from"]:])
    world = session.world
    vreport = validate_world(world, health=session.health)
    return {
        "modeled": _modeled(measured, request.get("arch", False)),
        "row_updates": measured["island_processing"].get(
            "row_updates", 0.0),
        "broadphase_pairs": measured["broadphase"].get("pairs", 0.0),
        "narrowphase_contacts": measured["narrowphase"].get(
            "contacts", 0.0),
        "digest": session.state_digest(),
        "validate_ok": vreport.ok,
        "validate": vreport.summary(),
        "sleeping": sum(1 for b in world.bodies if b.sleeping),
        "culled": world.culled,
        "watchdog_events": (len(session.health)
                            if session.health is not None else 0),
    }


# ---------------------------------------------------------------------------
# runner


class AblationRunner:
    """Expand, dedup, execute, and score the ablation matrix."""

    def __init__(self, config: AblationConfig = None,
                 registry: FeatureRegistry = None):
        self.config = config if config is not None else AblationConfig()
        self.registry = (registry if registry is not None
                         else default_registry())
        self.features = self.registry.select(self.config.features)

    # -- matrix ---------------------------------------------------------
    def _spec_dict(self, workload: str, patch: dict) -> dict:
        """The resolved SessionSpec for ``workload`` + ``patch``."""
        from ..api import SessionSpec
        spec = SessionSpec(
            workload, scale=self.config.scale, seed=self.config.seed,
            backend=patch.get("backend", "scalar"),
            config=(dict(patch["config"])
                    if patch.get("config") else None),
            watchdog=bool(patch.get("watchdog", False)))
        return spec.to_dict()

    def _request(self, workload: str, patch: dict) -> dict:
        request = {
            "spec": self._spec_dict(workload, patch),
            "frames": self.config.frames,
            "measure_from": self.config.measure_from,
        }
        if not patch:
            # The baseline run is also priced on the arch variants.
            request["arch"] = True
        return request

    def build_matrix(self):
        """Every (cell, request) the run needs; cells share requests.

        Returns ``(cells, requests)`` where ``cells`` maps
        ``(feature, workload, role)`` to a request key and ``requests``
        maps request keys to request dicts (the deduped work list).
        """
        cells = {}
        requests = {}

        def add(feature_name, workload, role, patch):
            request = self._request(workload, patch)
            key = _request_key(request)
            requests.setdefault(key, request)
            cells[(feature_name, workload, role)] = key

        for workload in self.config.workloads:
            add(None, workload, "baseline", {})
        for feature in self.features:
            if feature.kind == "arch":
                continue  # priced off the baseline run
            for workload in self.config.workloads:
                if not feature.applicable(workload):
                    continue
                add(feature.name, workload, "base", feature.base_patch)
                add(feature.name, workload, "toggled", feature.patch)
        return cells, requests

    # -- execution ------------------------------------------------------
    def run(self, progress=None) -> dict:
        """Execute the matrix; returns the ``ablation`` payload."""
        cells, requests = self.build_matrix()
        jobs = self.config.resolved_jobs()
        keys = sorted(requests)
        worklist = [requests[k] for k in keys]
        if progress:
            progress(f"ablation: {len(cells)} cells -> "
                     f"{len(worklist)} unique runs on {jobs} process(es)")
        if jobs > 1 and len(worklist) > 1:
            with multiprocessing.Pool(processes=jobs) as pool:
                outcomes = pool.map(execute_request, worklist)
        else:
            outcomes = [execute_request(r) for r in worklist]
        return self._assemble(cells, requests, dict(zip(keys, outcomes)))

    # -- scoring --------------------------------------------------------
    @staticmethod
    def _deltas(base: dict, toggled: dict,
                keys=("modeled_fps_paper", "modeled_fps_paper")) -> dict:
        """Score ``toggled`` against ``base``; ``keys`` names the machine
        variant each side is priced on (arch features: the same run on
        two variants)."""
        def pct(new, old):
            return (new - old) / old * 100.0 if old else 0.0
        base_fps = base["modeled"][keys[0]]
        toggled_fps = toggled["modeled"][keys[1]]
        return {
            "base_modeled_fps": base_fps,
            "toggled_modeled_fps": toggled_fps,
            "delta_modeled_fps_pct": pct(toggled_fps, base_fps),
            "base_row_updates": base["row_updates"],
            "toggled_row_updates": toggled["row_updates"],
            "delta_row_updates_pct": pct(toggled["row_updates"],
                                         base["row_updates"]),
            "digest_changed": toggled["digest"] != base["digest"],
            "validate_ok": toggled["validate_ok"],
            "validate": toggled["validate"],
        }

    @staticmethod
    def _summary(per_workload: dict) -> dict:
        deltas = [w["delta_modeled_fps_pct"]
                  for w in per_workload.values()]
        rows = [w["delta_row_updates_pct"] for w in per_workload.values()]
        n = max(1, len(per_workload))
        return {
            "workloads": len(per_workload),
            "mean_delta_modeled_fps_pct": sum(deltas) / n,
            "max_abs_delta_modeled_fps_pct": max(
                (abs(d) for d in deltas), default=0.0),
            "mean_delta_row_updates_pct": sum(rows) / n,
            "digest_changed_workloads": sum(
                1 for w in per_workload.values() if w["digest_changed"]),
            "all_validate_ok": all(
                w["validate_ok"] for w in per_workload.values()),
            # Scalar importance: mean absolute modeled-throughput impact
            # of the toggle, as a fraction (NeoPhysIx-style accounting
            # in a deterministic currency).
            "importance": sum(abs(d) for d in deltas) / n / 100.0,
        }

    def _assemble(self, cells, requests, results) -> dict:
        cfg = self.config
        baseline = {
            workload: results[cells[(None, workload, "baseline")]]
            for workload in cfg.workloads}

        features = {}
        for feature in self.features:
            per_workload = {}
            for workload in cfg.workloads:
                if not feature.applicable(workload):
                    continue
                if feature.kind == "arch":
                    run = baseline[workload]
                    per_workload[workload] = self._deltas(
                        run, run, feature.arch_keys)
                else:
                    per_workload[workload] = self._deltas(
                        results[cells[(feature.name, workload, "base")]],
                        results[cells[(feature.name, workload,
                                       "toggled")]])
            features[feature.name] = {
                "description": feature.description,
                "kind": feature.kind,
                "default_on": feature.default_on,
                "workloads": per_workload,
                "summary": self._summary(per_workload),
            }

        return {
            "settings": {
                "scale": cfg.scale,
                "frames": cfg.frames,
                "seed": cfg.seed,
                "measure_from": cfg.measure_from,
            },
            "workloads": list(cfg.workloads),
            "baseline": baseline,
            "features": features,
            "matrix": {
                "total_cells": len(cells),
                "unique_runs": len(requests),
                "memo_hits": len(cells) - len(requests),
            },
        }


def make_report(payload: dict) -> dict:
    """Wrap an ablation payload in the schema/platform envelope."""
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "ablation": payload,
    }
