"""Tests for the four evaluation configurations (paper Section VI.B)."""

import pytest

from repro.core.configurations import (
    CONFIG_NAMES,
    run_configuration,
    run_evaluation,
)
from repro.errors import ConfigurationError
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.policies.governors import BaselinePolicy
from repro.policies.registry import resolve_policy
from repro.policies.safevmin import SafeVminPolicy
from repro.workloads.generator import ServerWorkloadGenerator


class TestFactory:
    def test_all_names_buildable(self, spec3, policy3):
        for name in CONFIG_NAMES:
            policy = resolve_policy(name, spec3, table=policy3)
            assert policy is not None

    def test_baseline_type(self, spec3):
        assert isinstance(
            resolve_policy("baseline", spec3), BaselinePolicy
        )

    def test_registry_keys_accepted_directly(self, spec3, policy3):
        assert isinstance(
            resolve_policy("safe-vmin", spec3, table=policy3),
            SafeVminPolicy,
        )

    def test_safe_vmin_type(self, spec3, policy3):
        assert isinstance(
            resolve_policy("safe_vmin", spec3, table=policy3),
            SafeVminPolicy,
        )

    def test_placement_daemon_without_voltage(self, spec3, policy3):
        daemon = resolve_policy("placement", spec3, table=policy3)
        assert isinstance(daemon, OnlineMonitoringDaemon)
        assert not daemon.control_voltage

    def test_optimal_daemon_with_voltage(self, spec3, policy3):
        daemon = resolve_policy("optimal", spec3, table=policy3)
        assert daemon.control_voltage

    def test_unknown_config(self, spec3):
        with pytest.raises(ConfigurationError):
            resolve_policy("turbo", spec3)


@pytest.fixture(scope="module")
def small_evaluation():
    """A 5-minute evaluation on X-Gene 2 (all four configurations)."""
    return run_evaluation("xgene2", duration_s=300.0, seed=11)


class TestEvaluation:
    def test_all_configs_present(self, small_evaluation):
        assert set(small_evaluation.results) == set(CONFIG_NAMES)

    def test_same_workload_replayed(self, small_evaluation):
        jobs = {
            name: tuple(
                (p.pid, p.name, p.arrival_s)
                for p in result.processes
            )
            for name, result in small_evaluation.results.items()
        }
        assert len(set(jobs.values())) == 1

    def test_savings_ordering(self, small_evaluation):
        rows = {r.config: r for r in small_evaluation.rows()}
        assert rows["baseline"].energy_savings_pct == 0.0
        assert rows["optimal"].energy_savings_pct > max(
            rows["safe_vmin"].energy_savings_pct,
            rows["placement"].energy_savings_pct,
        )
        assert rows["safe_vmin"].energy_savings_pct > 0
        assert rows["placement"].energy_savings_pct > 0

    def test_no_violations_anywhere(self, small_evaluation):
        for result in small_evaluation.results.values():
            assert result.violations == []

    def test_time_penalty_small(self, small_evaluation):
        rows = {r.config: r for r in small_evaluation.rows()}
        assert rows["safe_vmin"].time_penalty_pct == pytest.approx(
            0.0, abs=0.01
        )
        assert rows["optimal"].time_penalty_pct < 10.0

    def test_placement_and_optimal_share_makespan(self, small_evaluation):
        rows = {r.config: r for r in small_evaluation.rows()}
        # Voltage scaling never changes timing, only power.
        assert rows["placement"].time_s == pytest.approx(
            rows["optimal"].time_s, rel=1e-6
        )

    def test_ed2p_consistent(self, small_evaluation):
        for row in small_evaluation.rows():
            assert row.ed2p == pytest.approx(
                row.energy_j * row.time_s**2, rel=1e-9
            )

    def test_missing_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            run_evaluation(
                "xgene2", duration_s=60.0, configs=("optimal",)
            )

    def test_row_for_unknown_config(self, small_evaluation):
        with pytest.raises(ConfigurationError):
            small_evaluation.row("turbo")


class TestReplayedEvaluation:
    """An evaluation takes earlier replays of its workload and replays
    only the configurations they lack (Tables III/IV on Fig. 14)."""

    def test_takes_replays_and_matches_a_fresh_evaluation(
        self, small_evaluation
    ):
        earlier = run_evaluation(
            "xgene2", duration_s=300.0, seed=11,
            configs=("baseline", "optimal"),
        )
        table = run_evaluation("xgene2", replayed=earlier)
        assert table.workload is earlier.workload
        for config in ("baseline", "optimal"):
            assert table.results[config] is earlier.results[config]
        assert list(table.results) == list(CONFIG_NAMES)
        assert table.rows() == small_evaluation.rows()

    def test_replays_of_another_chip_rejected(self, small_evaluation):
        with pytest.raises(ConfigurationError, match="cannot evaluate"):
            run_evaluation("xgene3", replayed=small_evaluation)


class TestRunConfiguration:
    def test_explicit_workload(self, spec2):
        workload = ServerWorkloadGenerator(max_cores=8, seed=3).generate(
            120.0
        )
        result = run_configuration("xgene2", workload, "baseline")
        assert result.makespan_s > 0

    def test_silicon_seed_changes_vmin_but_not_baseline_energy(self):
        workload = ServerWorkloadGenerator(max_cores=8, seed=3).generate(
            120.0
        )
        a = run_configuration("xgene2", workload, "baseline", silicon_seed=1)
        b = run_configuration("xgene2", workload, "baseline", silicon_seed=2)
        # Baseline ignores Vmin entirely: identical runs.
        assert a.energy_j == pytest.approx(b.energy_j)
