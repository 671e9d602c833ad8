"""Unit tests for the feature-ablation framework (``repro.ablation``).

Covers the registry contract (patch validation, selection), matrix
generation with memoized dedup, the runner end-to-end at tiny scale
(every score a pure function of the config: equal payloads run to run
and across ``jobs``), and the batch-packing digest identity.  The
single-mechanism studies' output is pinned with every other table in
``tests/test_paper_shapes.py``.
"""

import pytest

from repro.ablation import (
    AblationConfig,
    AblationRunner,
    Feature,
    FeatureRegistry,
    TABLE3_WORKLOADS,
    default_registry,
    make_report,
)


# ---------------------------------------------------------------------------
# registry


class TestFeatureRegistry:
    def test_default_registry_has_at_least_eight_features(self):
        assert len(default_registry()) >= 8

    def test_default_registry_names(self):
        names = default_registry().names()
        for expected in ("warm_start", "autosleep", "ccd",
                         "broadphase_sap", "numpy_fastpath",
                         "watchdog", "l2_partitioning", "prefetch"):
            assert expected in names

    def test_unknown_patch_key_rejected(self):
        with pytest.raises(ValueError, match="unknown patch keys"):
            Feature("bad", "d", patch={"solver": "off"})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown WorldConfig"):
            Feature("bad", "d", patch={"config": {"not_a_field": 1}})

    def test_arch_feature_requires_arch_keys(self):
        with pytest.raises(ValueError, match="needs arch_keys"):
            Feature("bad", "d", kind="arch")

    def test_non_arch_feature_rejects_arch_keys(self):
        with pytest.raises(ValueError, match="arch-only"):
            Feature("bad", "d", arch_keys=("a", "b"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown feature kind"):
            Feature("bad", "d", kind="quantum")

    def test_duplicate_registration_rejected(self):
        reg = FeatureRegistry([Feature("f", "d")])
        with pytest.raises(ValueError, match="already registered"):
            reg.register(Feature("f", "d2"))

    def test_select_comma_string_and_all(self):
        reg = default_registry()
        assert [f.name for f in reg.select("ccd, warm_start")] \
            == ["ccd", "warm_start"]
        assert len(reg.select("all")) == len(reg)
        assert len(reg.select(None)) == len(reg)

    def test_select_unknown_name(self):
        with pytest.raises(KeyError, match="unknown feature"):
            default_registry().select("not_a_feature")

    def test_workload_applicability(self):
        f = Feature("f", "d", workloads=("mix",))
        assert f.applicable("mix") and not f.applicable("periodic")
        assert Feature("g", "d").applicable("anything")

    def test_to_dict_round_trips_fields(self):
        f = default_registry().get("prefetch")
        d = f.to_dict()
        assert d["kind"] == "arch"
        assert d["patch"] == d["base_patch"] == {}
        assert d["default_on"] is False
        assert d["arch_keys"] == ["modeled_fps_paper",
                                  "modeled_fps_prefetch"]


# ---------------------------------------------------------------------------
# matrix generation


class TestMatrix:
    def test_baseline_shared_across_features(self):
        cfg = AblationConfig(workloads="periodic", jobs=1)
        cells, requests = AblationRunner(cfg).build_matrix()
        # Every engine feature with an empty base patch shares the
        # baseline request; arch features add no cells at all.
        assert cells[(None, "periodic", "baseline")] \
            == cells[("ccd", "periodic", "base")] \
            == cells[("warm_start", "periodic", "base")]
        assert ("l2_partitioning", "periodic", "base") not in cells
        assert len(requests) < len(cells)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workloads"):
            AblationConfig(workloads="periodic,atlantis")

    def test_table3_workloads_resolve(self):
        assert AblationConfig(workloads="table3").workloads \
            == list(TABLE3_WORKLOADS)


# ---------------------------------------------------------------------------
# runner (tiny end-to-end)


#: Features whose toggle is a contract, not a trade-off: numpy ≡ scalar,
#: a clean watchdog run ≡ unguarded, SAP ≡ the brute pair set, and arch
#: re-pricing never re-simulates.
CONTRACT_FEATURES = ("numpy_fastpath", "watchdog", "broadphase_sap",
                     "l2_partitioning", "prefetch")

#: The contracts that promise the *same simulation* (same trajectory,
#: same frame report), so the modeled machine sees no difference at
#: all.  SAP does fewer AABB tests than brute force and the arch
#: features exist to move the modeled number, so they are not here.
SAME_SIMULATION_FEATURES = ("numpy_fastpath", "watchdog")


def _run(jobs):
    cfg = AblationConfig(workloads="continuous", scale=0.02, frames=2,
                         jobs=jobs)
    return AblationRunner(cfg).run()


class TestRunner:
    @pytest.fixture(scope="class")
    def payload(self):
        return _run(jobs=1)

    def test_payload_is_a_pure_function_of_the_config(self, payload):
        # No stopwatch: a second run, in-process or fanned out over
        # worker processes, scores every cell identically.
        assert _run(jobs=1) == payload
        assert _run(jobs=2) == payload

    @pytest.mark.parametrize("name", SAME_SIMULATION_FEATURES)
    def test_same_simulation_costs_exactly_nothing(self, payload, name):
        assert payload["features"][name]["summary"]["importance"] == 0.0

    def test_every_feature_scored(self, payload):
        assert len(payload["features"]) >= 8
        for feature in payload["features"].values():
            summary = feature["summary"]
            assert "importance" in summary
            assert summary["workloads"] == 1

    def test_toggling_keeps_world_valid(self, payload):
        for name, feature in payload["features"].items():
            assert feature["summary"]["all_validate_ok"], name

    def test_matrix_memoization_reported(self, payload):
        matrix = payload["matrix"]
        assert matrix["unique_runs"] < matrix["total_cells"]
        assert matrix["memo_hits"] \
            == matrix["total_cells"] - matrix["unique_runs"]

    def test_numpy_fastpath_digest_unchanged(self, payload):
        # The numpy backend is bit-identical to the scalar oracle by
        # contract, so toggling it must not move the trajectory.
        cell = payload["features"]["numpy_fastpath"]["workloads"][
            "continuous"]
        assert cell["digest_changed"] is False

    def test_arch_features_priced_from_baseline(self, payload):
        modeled = payload["baseline"]["continuous"]["modeled"]
        cell = payload["features"]["l2_partitioning"]["workloads"][
            "continuous"]
        assert cell["base_modeled_fps"] == modeled["modeled_fps_paper"]
        assert cell["toggled_modeled_fps"] \
            == modeled["modeled_fps_shared_l2"]
        assert cell["digest_changed"] is False

    @pytest.mark.parametrize("name", CONTRACT_FEATURES)
    def test_contract_toggle_keeps_solver_work(self, payload, name):
        cell = payload["features"][name]["workloads"]["continuous"]
        assert cell["delta_row_updates_pct"] == 0.0

    # numpy_fastpath and l2_partitioning digests are asserted above.
    @pytest.mark.parametrize("name", ("watchdog", "broadphase_sap",
                                      "prefetch"))
    def test_contract_toggle_keeps_digest(self, payload, name):
        cell = payload["features"][name]["workloads"]["continuous"]
        assert cell["digest_changed"] is False

    @pytest.mark.parametrize("name", ("l2_partitioning", "prefetch"))
    def test_arch_features_reuse_baseline_row_updates(self, payload, name):
        cell = payload["features"][name]["workloads"]["continuous"]
        baseline = payload["baseline"]["continuous"]["row_updates"]
        assert cell["base_row_updates"] == baseline
        assert cell["toggled_row_updates"] == baseline

    def test_report_envelope(self, payload):
        report = make_report(payload)
        assert report["schema"] == "repro-ablation-report/2"
        assert report["ablation"] is payload


def test_batch_packing_is_bit_identical_across_worlds():
    """Packing N worlds must not perturb any member's trajectory —
    including worlds whose bodies share uid values (uid scopes are
    per-session, so cross-world uid collisions are the normal case)."""
    from repro.api import Session, SessionGroup, SessionSpec

    def spec(seed):
        return SessionSpec("highspeed", scale=0.02, seed=seed,
                           backend="numpy")

    solo = [Session.create(spec(s)) for s in range(2)]
    for s in solo:
        s.step(2)
    packed = [Session.create(spec(s)) for s in range(2)]
    SessionGroup(packed).step(2)
    for a, b in zip(solo, packed):
        assert a.state_digest() == b.state_digest()


# ---------------------------------------------------------------------------
# studies


class TestStudies:
    def test_ccd_config_toggle_matches_threshold_ablation(self):
        """WorldConfig.ccd=False reproduces the old module-threshold
        monkeypatch: the fast bullet tunnels, the slow one cannot."""
        from repro.ablation.studies import _tunnel_test

        assert _tunnel_test(30.0, False)        # too slow to tunnel
        assert not _tunnel_test(288.0, False)   # tunnels without CCD
        assert _tunnel_test(288.0, True)        # CCD stops it
