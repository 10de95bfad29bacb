"""Tests for the experiment registry and the parallel orchestrator."""

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass

import pytest

from repro import telemetry
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import orchestrator
from repro.experiments.registry import (
    REGISTRY,
    ExperimentEntry,
    experiment_names,
    get_entry,
    split_label,
    topological_order,
)
from repro.vmin.cache import configure_default_cache, get_default_cache
from repro.vmin.characterize import VminCampaign

#: Cheap experiments used for end-to-end orchestration tests.
FAST_SUBSET = ["table1", "fig5", "fig6"]


@pytest.fixture(autouse=True)
def fresh_default_cache():
    configure_default_cache()
    yield
    configure_default_cache()


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

    for name in ("measure_safe_vmin_batch", "scan_unsafe_region_batch"):
        monkeypatch.setattr(VminCampaign, name, spy(getattr(VminCampaign, name)))
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
            assert {split_label(dep)[0] for dep in entry.depends} <= names

    def test_split_label(self):
        assert split_label("fig14@xgene2") == ("fig14", "xgene2")
        assert split_label("fig14") == ("fig14", None)

    def test_get_entry_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_entry("fig99")

    def test_report_depends_on_upstream_experiments(self):
        assert get_entry("report").depends == (
            "fig3@xgene3", "fig4@xgene2", "table3", "table4"
        )


class TestTopologicalOrder:
    def test_full_registry_keeps_dependencies_before_dependents(self):
        order = topological_order(experiment_names())
        position = {node.key: i for i, node in enumerate(order)}
        for node in order:
            for key in node.inputs:
                assert position[key] < position[node.key]

    def test_dependency_free_selection_keeps_registry_order(self):
        order = [n.label for n in topological_order(["fig5", "table1"])]
        assert order == ["table1", "fig5"]

    def test_deps_outside_selection_are_scheduled(self):
        order = [node.label for node in topological_order(["report"])]
        assert order == [
            "fig3@xgene3", "fig4", "fig14@xgene2", "fig14", "table3",
            "table4", "report",
        ]

    def test_fig12_takes_fig11_on_its_own_platform(self):
        order = topological_order(["fig12"], platform="xgene3")
        assert [(node.label, node.key) for node in order] == [
            ("fig11", ("fig11", "xgene3")),
            ("fig12", ("fig12", "xgene3")),
        ]

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
        assert [o.name for o in summary.outcomes] == [
            "report", "fig3@xgene3", "fig4", "fig14@xgene2", "fig14",
            "table3", "table4",
        ]
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


@dataclass
class ToyResult:
    """Result of a toy experiment: what it ran on and what it took."""

    text: str

    def format(self):
        return self.text


#: File each toy render appends its node to; set per test.
TOY_LOG = None


def _toy_log(line):
    with open(TOY_LOG, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def render_toy(platform, duration_s, seed, policy, **inputs):
    _toy_log(f"toy@{platform}")
    taken = ", ".join(f"{k}={v.text}" for k, v in sorted(inputs.items()))
    return ToyResult(f"on {platform} [{taken}]")


def render_slow(platform, duration_s, seed, policy):
    _toy_log("slow started")
    time.sleep(30)
    return ToyResult("slow")


def render_dies(platform, duration_s, seed, policy):
    # Die only once the other worker is inside its node, so the broken
    # pool fails a node that did not die with this one.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        with open(TOY_LOG, encoding="utf-8") as handle:
            if "slow started" in handle.read():
                break
        time.sleep(0.01)
    os._exit(3)


def _toy(name, **fields):
    return ExperimentEntry(
        name=name, artefact=name, module="toy", render_name="render_toy",
        **fields,
    )


#: ``base`` on p1 is requested and ``user``'s input; ``other`` takes
#: ``base`` on p2.
TOY_REGISTRY = (
    _toy("base", default_platform="p1"),
    _toy("user", depends=("base",), default_platform="p1"),
    _toy("other", depends=("base@p2",)),
    ExperimentEntry(
        name="slow", artefact="slow", module="toy", render_name="render_slow"
    ),
    ExperimentEntry(
        name="dies", artefact="dies", module="toy", render_name="render_dies"
    ),
)


@pytest.fixture
def toy_registry(monkeypatch, tmp_path):
    """Run the orchestrator over :data:`TOY_REGISTRY`; returns the
    render log's path. Pool workers fork after the patches."""
    log = tmp_path / "renders.log"
    log.write_text("")
    monkeypatch.setattr(sys.modules[__name__], "TOY_LOG", str(log))
    monkeypatch.setitem(
        sys.modules, "repro.experiments.toy", sys.modules[__name__]
    )
    monkeypatch.setattr(
        orchestrator,
        "topological_order",
        functools.partial(topological_order, registry=TOY_REGISTRY),
    )
    return log


class TestNodes:
    """A node is (experiment, platform), and each runs once per run."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_request_and_input_with_one_key_run_once(
        self, toy_registry, jobs
    ):
        summary = orchestrator.run_experiments(
            ["base", "user", "other"], jobs=jobs
        )
        # base and user on p1, other on no platform, base again on p2.
        renders = toy_registry.read_text().splitlines()
        assert sorted(renders) == [
            "toy@None", "toy@p1", "toy@p1", "toy@p2"
        ]
        assert [o.name for o in summary.outcomes] == [
            "base", "user", "other", "base@p2"
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_input_on_another_platform_is_listed_not_printed(
        self, toy_registry, jobs
    ):
        summary = orchestrator.run_experiments(["other"], jobs=jobs)
        assert [o.name for o in summary.outcomes] == ["other", "base@p2"]
        assert summary.outcome("base@p2").output == "on p2 []"
        assert summary.merged_output() == (
            "== other ==\non None [base=on p2 []]\n\n"
        )

    def test_results_cross_the_pool(self, toy_registry):
        names = ["user", "other", "base"]
        serial = orchestrator.run_experiments(names, jobs=1)
        pooled = orchestrator.run_experiments(names, jobs=2)
        assert pooled.merged_output() == serial.merged_output()
        assert pooled.outcome("user").output == "on p1 [base=on p1 []]"

    def test_dead_worker_named_not_the_node_killed_with_it(
        self, toy_registry
    ):
        # ``slow`` comes first in the schedule and is running when
        # ``dies`` takes its worker down; the pool then kills ``slow``.
        with pytest.raises(ExperimentError) as failure:
            orchestrator.run_experiments(["slow", "dies"], jobs=2)
        assert failure.value.experiment == "dies"
        assert "slow started" in toy_registry.read_text()


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
        configure_default_cache()
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
            600.0, 0, None, str(tmp_path), False
        )
        (node,) = topological_order(["fig3"])
        outcome, result = orchestrator._execute(node, settings, {}, False)
        assert result is None
        assert outcome.name == "fig3"
        assert outcome.output
        assert outcome.elapsed_s >= 0.0
        assert outcome.cache.misses > 0
        assert any(tmp_path.iterdir())
