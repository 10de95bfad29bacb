"""End-to-end integration tests across the whole stack."""

import pytest

from repro import (
    Chip,
    OnlineMonitoringDaemon,
    ServerSystem,
    ServerWorkloadGenerator,
    get_spec,
    run_evaluation,
)
from repro.core.monitoring import MonitoringDaemon
from repro.core.policy import VminPolicyTable
from repro.policies.governors import BaselinePolicy
from repro.sim.process import WorkloadClass
from repro.vmin.characterize import VminCampaign
from repro.allocation import Allocation
from tests.perf_like_reader import PerfLikeReader


class TestCharacterizationToPolicyToDaemon:
    """The paper's full loop: characterize -> build table -> run daemon."""

    def test_policy_built_from_campaign_keeps_daemon_safe(self):
        spec = get_spec("xgene2")
        policy = VminPolicyTable.from_characterization(spec)
        # Seed 13 draws no job in 400 s; seed 12 draws nine.
        workload = ServerWorkloadGenerator(max_cores=8, seed=12).generate(
            400.0
        )
        chip = Chip(spec)
        daemon = OnlineMonitoringDaemon(spec, policy=policy)
        result = ServerSystem(chip, workload, daemon).run()
        assert result.violations == []
        assert all(p.finish_s is not None for p in result.processes)

    def test_campaign_agrees_with_policy_floor(self):
        spec = get_spec("xgene3")
        policy = VminPolicyTable.from_characterization(spec)
        campaign = VminCampaign(spec)
        point = campaign.point("CG", 32, Allocation.CLUSTERED, spec.fmax_hz)
        measured = campaign.measure_safe_vmin(point)
        # The daemon's level for this configuration covers the campaign
        # measurement.
        assert (
            policy.safe_voltage_mv(16, spec.fmax_hz)
            >= measured.safe_vmin_mv
        )


class TestCrossConfigConsistency:
    @pytest.fixture(scope="class")
    def evaluation(self):
        return run_evaluation("xgene3", duration_s=900.0, seed=21)

    def test_work_conserved_across_configs(self, evaluation):
        # Every configuration completes the same set of jobs.
        job_sets = {
            name: {p.pid for p in result.processes if p.finish_s}
            for name, result in evaluation.results.items()
        }
        assert len(set(map(frozenset, job_sets.values()))) == 1

    def test_baseline_fastest_or_equal(self, evaluation):
        base = evaluation.results["baseline"].makespan_s
        for name, result in evaluation.results.items():
            assert result.makespan_s >= base * 0.999

    def test_voltage_configs_use_fewer_joules(self, evaluation):
        results = evaluation.results
        assert (
            results["optimal"].energy_j
            < results["placement"].energy_j
        )
        assert (
            results["safe_vmin"].energy_j
            < results["baseline"].energy_j
        )

    def test_daemon_counts_transitions(self, evaluation):
        optimal = evaluation.results["optimal"]
        assert optimal.voltage_transitions > 0
        assert optimal.frequency_transitions > 0
        baseline = evaluation.results["baseline"]
        assert baseline.voltage_transitions == 0


class TestNoisyMonitoringIntegration:
    def test_daemon_with_perf_reader_still_safe(self):
        # Noisy classification can waste energy, never safety: voltage
        # floors come from the policy table, not from the classes.
        spec = get_spec("xgene2")
        workload = ServerWorkloadGenerator(max_cores=8, seed=17).generate(
            300.0
        )
        chip = Chip(spec)
        daemon = OnlineMonitoringDaemon(
            spec,
            monitor=MonitoringDaemon(reader=PerfLikeReader(0.05, seed=4)),
        )
        result = ServerSystem(chip, workload, daemon).run()
        assert result.violations == []


class TestClassificationAgainstGroundTruth:
    def test_daemon_classes_match_profiles(self):
        spec = get_spec("xgene3")
        workload = ServerWorkloadGenerator(max_cores=32, seed=23).generate(
            1200.0
        )
        chip = Chip(spec)
        daemon = OnlineMonitoringDaemon(spec)
        result = ServerSystem(chip, workload, daemon).run()
        checked = mismatches = 0
        for process in result.processes:
            if process.observed_class is WorkloadClass.UNKNOWN:
                continue
            checked += 1
            if process.observed_class is not process.reference_class:
                mismatches += 1
        assert checked > 10
        # Contention shifts PMU rates, so a few borderline programs may
        # legitimately flip; the bulk must match.
        assert mismatches <= 0.2 * checked


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        spec = get_spec("xgene2")
        workload = ServerWorkloadGenerator(max_cores=8, seed=29).generate(
            300.0
        )

        def run_once():
            chip = Chip(spec)
            daemon = OnlineMonitoringDaemon(spec)
            return ServerSystem(chip, workload, daemon).run()

        a, b = run_once(), run_once()
        assert a.energy_j == b.energy_j
        assert a.makespan_s == b.makespan_s
        assert [p.finish_s for p in a.processes] == [
            p.finish_s for p in b.processes
        ]

    def test_baseline_vs_daemon_workload_identical(self):
        spec = get_spec("xgene2")
        workload = ServerWorkloadGenerator(max_cores=8, seed=29).generate(
            300.0
        )
        base = ServerSystem(
            Chip(spec), workload, BaselinePolicy()
        ).run()
        opt = ServerSystem(
            Chip(spec), workload, OnlineMonitoringDaemon(spec)
        ).run()
        assert [p.arrival_s for p in base.processes] == [
            p.arrival_s for p in opt.processes
        ]
