"""The feature x workload matrix (``repro.ablation.studies``) as
assertions on its data, plus the batch-packing digest identity.

The data comes from the suite's one regeneration (the ``regen`` fixture
of ``tests/conftest.py``), so nothing here simulates the matrix a
second time; its rendered text is pinned with every other table by
``tests/test_paper_shapes.py::test_table_matches_committed``, which is
also what holds it to "a pure function of the code": same bytes on
either backend and whatever the process built before.
"""

import pytest

from repro.analysis.tables import PAPER_TABLE3_MINST

FEATURES = ("warm_start", "autosleep", "ccd", "broadphase_sap",
            "numpy_fastpath", "watchdog", "l2_partitioning", "prefetch")

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


@pytest.fixture(scope="module")
def matrix(regen):
    return regen[1]["ablation_matrix"][0]


def _cells(matrix, name):
    return matrix[name]["workloads"].values()


class TestMatrix:
    def test_table3_workloads_resolve(self, matrix):
        for feature in matrix.values():
            assert set(feature["workloads"]) == set(PAPER_TABLE3_MINST)


class TestRunner:
    """What the matrix must show, feature by feature."""

    def test_every_feature_scored(self, matrix):
        assert tuple(matrix) == FEATURES
        for feature in matrix.values():
            assert 0.0 <= feature["importance"] < 1.0

    def test_toggling_keeps_world_valid(self, matrix):
        for name, feature in matrix.items():
            assert feature["all_valid"], name
            assert all(cell["valid"] for cell in _cells(matrix, name))

    @pytest.mark.parametrize("name", SAME_SIMULATION_FEATURES)
    def test_same_simulation_costs_exactly_nothing(self, matrix, name):
        assert matrix[name]["importance"] == 0.0
        for cell in _cells(matrix, name):
            assert cell["delta_modeled_fps_pct"] == 0.0

    def test_load_bearing_features_move_the_modeled_machine(self, matrix):
        for name in ("warm_start", "broadphase_sap", "prefetch"):
            assert matrix[name]["importance"] > 0.0, name
        # Cold-started contacts change trajectories, not just cost.
        assert matrix["warm_start"]["digest_changed_workloads"] > 0

    def test_numpy_fastpath_digest_unchanged(self, matrix):
        # The numpy backend is bit-identical to the scalar oracle by
        # contract, so toggling it must not move the trajectory.
        assert matrix["numpy_fastpath"]["digest_changed_workloads"] == 0

    def test_arch_features_priced_from_baseline(self, matrix):
        # An arch row is the baseline run on another machine: the
        # trajectory cannot move, and covering misses can only help.
        for name in ("l2_partitioning", "prefetch"):
            assert matrix[name]["digest_changed_workloads"] == 0
        for cell in _cells(matrix, "prefetch"):
            assert cell["delta_modeled_fps_pct"] > 0.0

    @pytest.mark.parametrize("name", CONTRACT_FEATURES)
    def test_contract_toggle_keeps_solver_work(self, matrix, name):
        assert matrix[name]["mean_delta_row_updates_pct"] == 0.0
        for cell in _cells(matrix, name):
            assert cell["delta_row_updates_pct"] == 0.0

    # numpy_fastpath and l2_partitioning digests are asserted above.
    @pytest.mark.parametrize("name", ("watchdog", "broadphase_sap",
                                      "prefetch"))
    def test_contract_toggle_keeps_digest(self, matrix, name):
        assert not any(cell["digest_changed"]
                       for cell in _cells(matrix, name))

    @pytest.mark.parametrize("name", ("l2_partitioning", "prefetch"))
    def test_arch_features_reuse_baseline_row_updates(self, matrix, name):
        for workload, cell in matrix[name]["workloads"].items():
            baseline = matrix["warm_start"]["workloads"][workload][
                "base_row_updates"]
            assert cell["base_row_updates"] == baseline
            assert cell["toggled_row_updates"] == baseline


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
