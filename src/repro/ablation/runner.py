"""Ablation run matrix: generation, parallel execution, importance.

The :class:`AblationRunner` expands a :class:`FeatureRegistry` into the
baseline-plus-one-off run matrix, executes every *unique*
configuration exactly once — the baseline is shared by most features,
so the matrix dedups hard — in parallel via :mod:`multiprocessing`,
and folds the per-run metrics into per-feature
importance scores:

* ``delta_fps_pct`` — wall-throughput change of the toggled state
  (CPU-time based, so parallel workers don't skew each other);
* ``delta_row_updates_pct`` — solver work change (PGS row relaxations
  per frame, a deterministic counter);
* ``digest_changed`` — whether toggling the feature changes the
  trajectory at all (:meth:`repro.api.Session.state_digest`).

Arch-kind features never re-simulate: the baseline run's recorded
frame report is re-priced through :class:`~repro.arch.ParallaxMachine`
variants (paper-partitioned L2, one shared L2, next-4-line prefetch),
so their importance is a modeled-FPS delta computed from the same
deterministic touch trace.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import time

from .features import FeatureRegistry, default_registry

__all__ = ["AblationConfig", "AblationRunner", "SCHEMA",
           "TABLE3_WORKLOADS", "make_report"]

SCHEMA = "repro-ablation-report/1"

TABLE3_WORKLOADS = ("periodic", "ragdoll", "continuous", "breakable",
                    "deformable", "explosions", "highspeed", "mix")

#: Machine variants priced on every baseline run (arch features diff
#: pairs of these; see Feature.arch_keys).
ARCH_VARIANTS = ("modeled_fps_paper", "modeled_fps_shared_l2",
                 "modeled_fps_prefetch")

PREFETCH_DEPTH = 4
PREFETCH_L2_BYTES = 1024 * 1024


class AblationConfig:
    """What to run: features x workloads at one scale/frames/seed."""

    def __init__(self, features="all", workloads="table3",
                 scale: float = 0.03, frames: int = 4, seed: int = 0,
                 measure_from: int = None, jobs: int = None,
                 batch_worlds: int = 4, repeats: int = 2):
        self.features = features
        self.workloads = self._resolve_workloads(workloads)
        self.scale = float(scale)
        self.frames = int(frames)
        self.seed = int(seed)
        self.measure_from = (max(0, self.frames - 2)
                             if measure_from is None else measure_from)
        self.jobs = jobs
        self.batch_worlds = int(batch_worlds)
        #: Each configuration simulates ``repeats`` times and keeps the
        #: fastest sample, which suppresses the slow-outlier tail of
        #: the fps columns.  Deterministic metrics are identical across
        #: repeats by construction.
        self.repeats = max(1, int(repeats))

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


def _arch_variants(measured) -> dict:
    """Modeled FPS of the baseline report under the machine variants."""
    from ..arch import L2Partitioning, ParallaxConfig, ParallaxMachine

    mb = 1024 * 1024
    paper = ParallaxMachine(ParallaxConfig(
        cg_cores=4, l2=L2Partitioning.paper_scheme()))
    shared = ParallaxMachine(ParallaxConfig(
        cg_cores=4, l2=L2Partitioning.shared(12 * mb)))
    coverage = _prefetch_coverage(measured)
    prefetch = ParallaxMachine(ParallaxConfig(
        cg_cores=4, l2=L2Partitioning.paper_scheme(),
        prefetch_coverage=coverage))
    return {
        "modeled_fps_paper": 1.0 / paper.frame_seconds(
            measured, threads=4),
        "modeled_fps_shared_l2": 1.0 / shared.frame_seconds(
            measured, threads=4),
        "modeled_fps_prefetch": 1.0 / prefetch.frame_seconds(
            measured, threads=4),
        "prefetch_coverage": coverage,
    }


def _session_metrics(session, reports, measure_from, frames,
                     sim_seconds, worlds_per_frame=1):
    from ..profiling import mean_report
    from ..workloads import validate_world

    measured = mean_report(reports[measure_from:])
    world = session.world
    vreport = validate_world(world, health=session.health)
    world_frames = frames * worlds_per_frame
    fps = world_frames / sim_seconds if sim_seconds > 0 else 0.0
    metrics = {
        "fps": fps,
        "ms_per_world_frame": (sim_seconds / world_frames * 1e3
                               if world_frames else 0.0),
        "sim_cpu_seconds": sim_seconds,
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
    return metrics, measured


def _execute_once(request: dict) -> dict:
    from ..api import Session, SessionGroup, SessionSpec

    spec = SessionSpec.from_dict(request["spec"])
    frames = request["frames"]
    measure_from = request["measure_from"]
    batch = request.get("batch", 0)

    t0 = time.perf_counter()
    if batch:
        specs = [spec]
        for k in range(1, batch):
            data = spec.to_dict()
            data["seed"] = spec.seed + k
            specs.append(SessionSpec.from_dict(data))
        sessions = [Session.create(s) for s in specs]
        group = SessionGroup(sessions)
        build_seconds = time.perf_counter() - t0
        t0 = time.process_time()
        group.step(frames)
        sim_seconds = time.process_time() - t0
        metrics, _measured = _session_metrics(
            sessions[0], sessions[0].reports, measure_from, frames,
            sim_seconds, worlds_per_frame=batch)
    else:
        session = Session.create(spec)
        build_seconds = time.perf_counter() - t0
        t0 = time.process_time()
        reports = session.step(frames)
        sim_seconds = time.process_time() - t0
        metrics, measured = _session_metrics(
            session, reports, measure_from, frames, sim_seconds)
        if request.get("arch"):
            metrics["modeled"] = _arch_variants(measured)
    metrics["build_seconds"] = build_seconds
    return metrics


def execute_request(request: dict) -> dict:
    """Run one configuration and return its plain-dict metrics.

    Top-level so :mod:`multiprocessing` workers can pickle it.  The
    request is self-contained: a resolved ``SessionSpec`` dict plus
    ``frames`` / ``measure_from`` / ``batch`` / ``repeats`` / ``arch``
    flags.  The whole simulation runs ``repeats`` times and the fastest
    sample wins (every non-timing metric is identical across repeats —
    the engine is deterministic per spec).
    """
    best = None
    for _ in range(request.get("repeats", 1)):
        metrics = _execute_once(request)
        if best is None or metrics["fps"] > best["fps"]:
            best = metrics
    return best


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
            "repeats": self.config.repeats,
        }
        batch = patch.get("batch", 0)
        if batch:
            request["batch"] = (self.config.batch_worlds
                                if batch is True else int(batch))
        if not patch or patch == {"config": None}:
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
        t0 = time.perf_counter()
        if jobs > 1 and len(worklist) > 1:
            with multiprocessing.Pool(processes=jobs) as pool:
                outcomes = pool.map(execute_request, worklist)
        else:
            outcomes = [execute_request(r) for r in worklist]
        wall_seconds = time.perf_counter() - t0
        results = dict(zip(keys, outcomes))
        if progress:
            progress(f"ablation: matrix done in {wall_seconds:.1f}s")
        return self._assemble(cells, requests, results, wall_seconds)

    # -- scoring --------------------------------------------------------
    @staticmethod
    def _deltas(base: dict, toggled: dict) -> dict:
        def pct(new, old):
            return (new - old) / old * 100.0 if old else 0.0
        return {
            "base_fps": base["fps"],
            "toggled_fps": toggled["fps"],
            "delta_fps_pct": pct(toggled["fps"], base["fps"]),
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
        deltas = [w["delta_fps_pct"] for w in per_workload.values()]
        rows = [w["delta_row_updates_pct"] for w in per_workload.values()]
        n = max(1, len(per_workload))
        mean_fps = sum(deltas) / n
        return {
            "workloads": len(per_workload),
            "mean_delta_fps_pct": mean_fps,
            "max_abs_delta_fps_pct": max(
                (abs(d) for d in deltas), default=0.0),
            "mean_delta_row_updates_pct": sum(rows) / n,
            "digest_changed_workloads": sum(
                1 for w in per_workload.values() if w["digest_changed"]),
            "all_validate_ok": all(
                w["validate_ok"] for w in per_workload.values()),
            # Scalar importance: mean absolute throughput impact of the
            # toggle, as a fraction (NeoPhysIx-style cost accounting).
            "importance": sum(abs(d) for d in deltas) / n / 100.0,
        }

    def _assemble(self, cells, requests, results, wall_seconds) -> dict:
        cfg = self.config
        baseline = {}
        for workload in cfg.workloads:
            baseline[workload] = results[cells[(None, workload,
                                                "baseline")]]

        features = {}
        for feature in self.features:
            per_workload = {}
            for workload in cfg.workloads:
                if not feature.applicable(workload):
                    continue
                if feature.kind == "arch":
                    modeled = baseline[workload].get("modeled", {})
                    base_key, toggled_key = feature.arch_keys
                    base_fps = modeled.get(base_key, 0.0)
                    toggled_fps = modeled.get(toggled_key, 0.0)
                    per_workload[workload] = {
                        "base_fps": base_fps,
                        "toggled_fps": toggled_fps,
                        "delta_fps_pct": (
                            (toggled_fps - base_fps) / base_fps * 100.0
                            if base_fps else 0.0),
                        "base_row_updates":
                            baseline[workload]["row_updates"],
                        "toggled_row_updates":
                            baseline[workload]["row_updates"],
                        "delta_row_updates_pct": 0.0,
                        "digest_changed": False,
                        "validate_ok": baseline[workload]["validate_ok"],
                        "validate": baseline[workload]["validate"],
                    }
                else:
                    base = results[cells[(feature.name, workload,
                                          "base")]]
                    toggled = results[cells[(feature.name, workload,
                                             "toggled")]]
                    per_workload[workload] = self._deltas(base, toggled)
            features[feature.name] = {
                "description": feature.description,
                "kind": feature.kind,
                "default_on": feature.default_on,
                "workloads": per_workload,
                "summary": self._summary(per_workload),
            }

        payload = {
            "settings": {
                "scale": cfg.scale,
                "frames": cfg.frames,
                "seed": cfg.seed,
                "measure_from": cfg.measure_from,
                "jobs": cfg.resolved_jobs(),
                "batch_worlds": cfg.batch_worlds,
                "repeats": cfg.repeats,
            },
            "workloads": list(cfg.workloads),
            "baseline": baseline,
            "features": features,
            "matrix": {
                "total_cells": len(cells),
                "unique_runs": len(requests),
                "memo_hits": len(cells) - len(requests),
                "wall_seconds": wall_seconds,
            },
        }
        return payload


def make_report(payload: dict) -> dict:
    """Wrap an ablation payload in the schema/platform envelope."""
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "ablation": payload,
    }
