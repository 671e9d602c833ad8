"""Benchmark construction, running, validation, and the cost model."""

import pytest

from repro.api import Session, SessionSpec, run_scenario
from repro.dynamics import ContactJoint, Joint
from repro.geometry import Shape
from repro.profiling import PARALLEL_PHASES, mean_report
from repro.profiling.tasks import phase_cg_speedup
from repro.workloads import (
    BENCHMARKS,
    get_benchmark,
    validate_world,
)

# Paper Table 3 benchmark set (reduced scale in tests).
EXPECTED_BENCHMARKS = {"periodic", "ragdoll", "breakable", "deformable",
                       "explosions"}


class TestBenchmarkRegistry:
    def test_paper_benchmarks_present(self):
        assert EXPECTED_BENCHMARKS <= set(BENCHMARKS)

    def test_get_benchmark_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("definitely-not-a-benchmark")

    def test_build_returns_world_and_driver(self):
        world, driver = get_benchmark("periodic").build(scale=0.05, seed=1)
        assert world.bodies
        world.step()  # usable immediately


def _subclasses(cls):
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _subclasses(sub)
    return found


def test_every_shape_and_joint_class_is_built_by_a_table3_scene():
    """The engine ships what the eight Table 3 scenes build: every shape
    kind and every non-contact joint class appears in at least one."""
    kinds, joint_types = set(), set()
    for bench in BENCHMARKS.values():
        world, _driver = bench.build(scale=0.03, seed=0)
        kinds |= {geom.shape.kind for geom in world.geoms}
        joint_types |= {type(joint) for joint in world.joints}
    assert kinds == {cls.kind for cls in _subclasses(Shape)}
    assert joint_types == _subclasses(Joint) - {ContactJoint}


class TestBenchmarkRuns:
    @pytest.mark.parametrize("name", sorted(EXPECTED_BENCHMARKS))
    def test_runs_clean_at_reduced_scale(self, name):
        run = run_scenario(SessionSpec(name, scale=0.05, seed=3),
                           frames=2)
        report = validate_world(run.world)
        assert report.ok, report.summary()

    def test_periodic_acceptance_case(self):
        """The ISSUE acceptance criterion, verbatim."""
        run = run_scenario(SessionSpec("periodic", scale=0.1), frames=3)
        assert len(run.reports) == 3
        assert validate_world(run.world).ok

    def test_table4_row_fields(self):
        run = run_scenario(SessionSpec("ragdoll", scale=0.05), frames=2)
        row = run.table4_row()
        assert row["benchmark"] == "ragdoll"
        assert row["objects"] > 0
        assert row["obj_pairs"] >= 0
        assert row["islands"] >= 1

    def test_deformable_has_cloth(self):
        run = run_scenario(SessionSpec("deformable", scale=0.05),
                           frames=2)
        row = run.table4_row()
        assert row["cloth_objects"] >= 1
        assert row["cloth_vertices"] > 0

    def test_measured_is_mean_of_tail(self):
        run = run_scenario(SessionSpec("periodic", scale=0.05), frames=3,
                           measure_from=1)
        manual = mean_report(run.reports[1:])
        assert (run.measured.total_instructions()
                == manual.total_instructions())


@pytest.mark.parametrize("backend", ["scalar", "numpy"])
def test_validate_world_does_not_change_the_next_frame(backend):
    """Validation is an audit: the frame after it matches a twin that
    was never validated, digest and every phase counter (the SAP swap
    count included)."""
    spec = SessionSpec("mix", scale=0.1, seed=0, backend=backend)
    audited, twin = Session.create(spec), Session.create(spec)
    audited.step(5)
    twin.step(5)
    assert validate_world(audited.world).ok
    (after,), (plain,) = audited.step(1), twin.step(1)
    assert audited.state_digest() == twin.state_digest()
    assert after.summary() == plain.summary()


class TestCostModel:
    def _report(self):
        return run_scenario(SessionSpec("ragdoll", scale=0.05),
                            frames=2).measured

    def test_instructions_positive_for_active_phases(self):
        per_phase = self._report().phase_instructions()
        assert per_phase["narrowphase"] > 0
        assert per_phase["island_processing"] > 0

    def test_cg_speedup_monotone_in_cores(self):
        report = self._report()
        for phase in PARALLEL_PHASES:
            s1 = phase_cg_speedup(report, phase, 1)
            s4 = phase_cg_speedup(report, phase, 4)
            s16 = phase_cg_speedup(report, phase, 16)
            assert s1 == pytest.approx(1.0)
            assert s1 <= s4 <= s16

    def test_cg_speedup_bounded_by_amdahl(self):
        """A phase's largest task caps its speedup below the core
        count."""
        report = self._report()
        for phase in PARALLEL_PHASES:
            assert phase_cg_speedup(report, phase, 64) < 64.0

    def test_parallel_phases_match_paper(self):
        assert PARALLEL_PHASES == ("narrowphase", "island_processing",
                                   "cloth")
