"""Tests for the experiment registry and the parallel orchestrator."""

import importlib

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.experiments import orchestrator
from repro.experiments.registry import (
    REGISTRY,
    ExperimentEntry,
    experiment_names,
    get_entry,
    topological_order,
)
from repro.experiments.energy_runner import EnergyRunner
from repro.vmin.cache import get_default_cache, reset_default_cache
from repro.vmin.characterize import VminCampaign

#: Cheap experiments used for end-to-end orchestration tests.
FAST_SUBSET = ["table1", "fig5", "fig6"]


@pytest.fixture(autouse=True)
def fresh_default_cache():
    reset_default_cache()
    yield
    reset_default_cache()


def _count_sweeps_with_a_miss(monkeypatch):
    """Record every campaign sweep that misses the default cache.

    Each sweep is charged only its own misses: the safe-Vmin search
    inside an unsafe-region scan is a sweep of its own.
    """
    sweeps = []
    nested = []

    def spy(method):
        def sweep(*args, **kwargs):
            stats = get_default_cache().stats
            before = stats.misses
            nested.append(0)
            try:
                return method(*args, **kwargs)
            finally:
                inner = nested.pop()
                total = stats.misses - before
                if total > inner:
                    sweeps.append(method.__name__)
                if nested:
                    nested[-1] += total

        return sweep

    for owner, name in (
        (VminCampaign, "measure_safe_vmin_batch"),
        (VminCampaign, "scan_unsafe_region_batch"),
        (EnergyRunner, "safe_voltages_mv"),
    ):
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    return sweeps


class TestRegistry:
    def test_names_unique_and_nonempty(self):
        names = experiment_names()
        assert len(names) == len(set(names)) > 0

    def test_every_entry_resolves_to_a_render_callable(self):
        for entry in REGISTRY:
            module = importlib.import_module(entry.module_path)
            assert callable(getattr(module, entry.render_name))

    def test_every_entry_declares_an_artefact(self):
        for entry in REGISTRY:
            assert entry.artefact
            assert entry.cost > 0

    def test_depends_reference_known_names(self):
        names = set(experiment_names())
        for entry in REGISTRY:
            assert set(entry.depends) <= names

    def test_get_entry_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_entry("fig99")

    def test_report_depends_on_upstream_experiments(self):
        assert get_entry("report").depends == ("table3", "table4")


class TestTopologicalOrder:
    def test_full_registry_keeps_dependencies_before_dependents(self):
        order = [e.name for e in topological_order(experiment_names())]
        position = {name: i for i, name in enumerate(order)}
        for entry in REGISTRY:
            for dep in entry.depends:
                assert position[dep] < position[entry.name]

    def test_dependency_free_selection_keeps_registry_order(self):
        order = [e.name for e in topological_order(["fig5", "table1"])]
        assert order == ["table1", "fig5"]

    def test_deps_outside_selection_are_scheduled(self):
        order = [e.name for e in topological_order(["report"])]
        assert order == ["table3", "table4", "report"]

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            topological_order(["fig99"])

    def test_cycle_detected(self):
        cyclic = (
            ExperimentEntry(
                name="a", artefact="A", module="a", depends=("b",), cost=1.0
            ),
            ExperimentEntry(
                name="b", artefact="B", module="b", depends=("a",), cost=1.0
            ),
        )
        with pytest.raises(ConfigurationError):
            topological_order(["a", "b"], registry=cyclic)

    def test_alternative_registry_unknown_name(self):
        alt = (
            ExperimentEntry(name="a", artefact="A", module="a", cost=1.0),
        )
        with pytest.raises(ConfigurationError):
            topological_order(["b"], registry=alt)


class TestRenderExperiment:
    """One experiment rendered through the orchestrator."""

    def test_matches_direct_module_call(self):
        module = importlib.import_module("repro.experiments.table1")
        summary = orchestrator.run_experiments(["table1"])
        direct = module.render(None, 600.0, 0, None).format()
        assert summary.outcome("table1").output == direct

    def test_platform_override(self):
        xg2 = orchestrator.run_experiments(["fig5"], platform="xgene2")
        xg3 = orchestrator.run_experiments(["fig5"], platform="xgene3")
        assert xg2.merged_output() != xg3.merged_output()

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            orchestrator.run_experiments(["fig99"])


class TestInputs:
    """``depends`` hands results over instead of ordering replays."""

    def test_inputs_run_but_are_not_printed(self):
        summary = orchestrator.run_experiments(
            ["report"], duration_s=240.0, seed=5
        )
        assert [o.name for o in summary.outcomes] == ["report"]
        assert summary.merged_output().count("== ") == 1

    def test_report_replays_nothing_of_its_own(self):
        # Tables III and IV replay four configurations each; the report
        # formats their rows instead of replaying them again.
        with telemetry.session() as registry:
            orchestrator.run_experiments(
                ["table3", "table4", "report"], duration_s=240.0, seed=5
            )
            counters = registry.snapshot()["counters"]
        assert counters[telemetry.names.SIM_RUNS] == 8

    def test_results_cross_the_pool(self):
        names = ["table3", "report"]
        sequential = orchestrator.run_experiments(
            names, jobs=1, duration_s=240.0, seed=5
        )
        parallel = orchestrator.run_experiments(
            names, jobs=2, duration_s=240.0, seed=5
        )
        assert parallel.merged_output() == sequential.merged_output()


class TestRunExperiments:
    def test_sequential_summary_shape(self):
        summary = orchestrator.run_experiments(names=FAST_SUBSET, jobs=1)
        assert summary.jobs == 1
        assert [o.name for o in summary.outcomes] == FAST_SUBSET
        for outcome in summary.outcomes:
            assert outcome.output
            assert outcome.elapsed_s >= 0.0
        assert summary.elapsed_s > 0.0

    def test_parallel_output_identical_to_sequential(self):
        sequential = orchestrator.run_experiments(names=FAST_SUBSET, jobs=1)
        parallel = orchestrator.run_experiments(names=FAST_SUBSET, jobs=2)
        assert parallel.merged_output() == sequential.merged_output()

    def test_merged_output_in_requested_order(self):
        summary = orchestrator.run_experiments(
            names=["fig6", "table1"], jobs=2
        )
        merged = summary.merged_output()
        assert merged.index("== fig6 ==") < merged.index("== table1 ==")

    def test_duplicate_names_collapsed(self):
        summary = orchestrator.run_experiments(
            names=["table1", "table1"], jobs=1
        )
        assert [o.name for o in summary.outcomes] == ["table1"]

    def test_unknown_name_rejected_before_any_work(self):
        with pytest.raises(ConfigurationError):
            orchestrator.run_experiments(names=["table1", "fig99"])

    def test_cache_accounting_reports_second_run_hits(
        self, tmp_path, monkeypatch
    ):
        names = ["fig3", "fig4"]
        sweeps = _count_sweeps_with_a_miss(monkeypatch)
        cold = orchestrator.run_experiments(
            names=names, jobs=1, cache_dir=tmp_path
        )
        reset_default_cache()
        warm = orchestrator.run_experiments(
            names=names, jobs=1, cache_dir=tmp_path
        )
        assert warm.merged_output() == cold.merged_output()
        cold_stats = cold.cache_totals
        assert cold_stats.hits == 0
        # The disk tier holds one file per sweep that missed, not one
        # per characterized point.
        files = list(tmp_path.iterdir())
        assert all(path.suffix == ".pack" for path in files)
        assert len(files) == len(sweeps) >= len(names)
        assert len(files) < cold_stats.misses
        lines = sum(len(path.read_bytes().splitlines()) for path in files)
        assert lines == cold_stats.stores == cold_stats.misses
        for name in names:
            warm_stats = warm.outcome(name).cache
            assert warm_stats.misses == 0
            assert warm_stats.hits > 0
            assert warm.outcome(name).cache_hit_rate == 1.0

    def test_summary_table_lists_each_experiment(self):
        summary = orchestrator.run_experiments(names=FAST_SUBSET, jobs=1)
        table = summary.format_table()
        for name in FAST_SUBSET:
            assert name in table
        assert "total" in table
        assert "speedup vs serial sum" in table

    def test_cache_totals_aggregate_outcomes(self):
        summary = orchestrator.run_experiments(
            names=["fig5", "fig6"], jobs=1
        )
        totals = summary.cache_totals
        assert totals.lookups == sum(
            o.cache.lookups for o in summary.outcomes
        )


class TestWorkerEntryPoint:
    def test_execute_populates_shared_disk_cache(self, tmp_path):
        settings = orchestrator._Settings(
            None, 600.0, 0, None, str(tmp_path), False
        )
        outcome, result = orchestrator._execute("fig3", settings, {}, False)
        assert result is None
        assert outcome.name == "fig3"
        assert outcome.output
        assert outcome.elapsed_s >= 0.0
        assert outcome.cache.misses > 0
        assert any(tmp_path.iterdir())
