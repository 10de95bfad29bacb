"""Tests for the execution-time model (paper Section IV.B)."""

import pytest

from repro.errors import ConfigurationError
from repro.perf.model import (
    bandwidth_demand_gbs,
    execution_state,
    multi_instance_performance_ratio,
    solo_slowdown,
    thread_work,
)
from repro.units import ghz
from repro.workloads.profiles import REFERENCE_FREQ_HZ
from repro.workloads.suites import get_benchmark


class TestFrequencyScaling:
    def test_cpu_intensive_scales_with_frequency(self, spec3, namd):
        fast = execution_state(namd, spec3, ghz(3.0)).duration_s
        slow = execution_state(namd, spec3, ghz(1.5)).duration_s
        assert slow / fast == pytest.approx(2.0, rel=0.05)

    def test_memory_intensive_barely_scales(self, spec3, cg):
        fast = execution_state(cg, spec3, ghz(3.0)).duration_s
        slow = execution_state(cg, spec3, ghz(1.5)).duration_s
        assert slow / fast < 1.35

    def test_reference_point_duration(self, spec3, namd):
        # At the reference clock on the reference chip, the solo
        # duration is the profile's reference time.
        assert execution_state(namd, spec3, REFERENCE_FREQ_HZ).duration_s == (
            pytest.approx(namd.ref_time_s, rel=0.01)
        )

    def test_xgene2_memory_path_slower(self, spec2, spec3, cg):
        t2 = execution_state(cg, spec2, ghz(2.4)).duration_s
        t3 = execution_state(cg, spec3, ghz(2.25)).duration_s
        # Lower clock AND slower memory on X-Gene 2.
        assert t2 > t3

    def test_zero_frequency_rejected(self, spec3, namd):
        with pytest.raises(ConfigurationError):
            solo_slowdown(namd, spec3, 0)


class TestThreadSemantics:
    """Section II.B: parallel work-split vs replicated instances."""

    def test_parallel_split_speeds_up(self, spec3, cg):
        solo = execution_state(cg, spec3, ghz(3.0), nthreads=1).duration_s
        split = execution_state(cg, spec3, ghz(3.0), nthreads=8).duration_s
        assert split < solo / 4

    def test_replicated_does_not_split(self, spec3, namd):
        solo = thread_work(namd, spec3, 1)
        multi = thread_work(namd, spec3, 8)
        assert multi.cpu_cycles == solo.cpu_cycles

    def test_parallel_efficiency_below_ideal(self, spec3, cg):
        solo = thread_work(cg, spec3, 1)
        split = thread_work(cg, spec3, 8)
        assert split.cpu_cycles > solo.cpu_cycles / 8

    def test_l3_accesses_split_with_work(self, spec3, cg):
        solo = thread_work(cg, spec3, 1)
        split = thread_work(cg, spec3, 4)
        assert split.l3_accesses < solo.l3_accesses

    def test_bad_thread_count(self, spec3, cg):
        with pytest.raises(ConfigurationError):
            thread_work(cg, spec3, 0)


class TestContentionAndSharing:
    def test_contention_inflates_memory_part(self, spec3, cg):
        base = execution_state(cg, spec3, ghz(3.0)).duration_s
        crowded = execution_state(cg, spec3, ghz(3.0), contention=2.0).duration_s
        assert crowded > base * 1.5

    def test_contention_ignores_cpu_bound(self, spec3, namd):
        base = execution_state(namd, spec3, ghz(3.0)).duration_s
        crowded = execution_state(namd, spec3, ghz(3.0), contention=3.0).duration_s
        assert crowded < base * 1.1

    def test_l2_sharing_slows_memory_bound(self, spec3, cg):
        alone = execution_state(cg, spec3, ghz(3.0), shares_pmd=False).duration_s
        shared = execution_state(cg, spec3, ghz(3.0), shares_pmd=True).duration_s
        assert shared > alone * 1.2

    def test_l2_sharing_spares_cpu_bound(self, spec3, namd):
        alone = execution_state(namd, spec3, ghz(3.0), shares_pmd=False).duration_s
        shared = execution_state(namd, spec3, ghz(3.0), shares_pmd=True).duration_s
        assert shared < alone * 1.05

    def test_invalid_contention_rejected(self, spec3, cg):
        with pytest.raises(ConfigurationError):
            execution_state(cg, spec3, ghz(3.0), contention=0.5)


class TestExecutionState:
    def test_memory_bound_mostly_stalled(self, spec3, cg):
        state = execution_state(cg, spec3, ghz(3.0))
        assert 1.0 - state.cpu_share > 0.6

    def test_cpu_share_rises_at_low_frequency(self, spec3, cg):
        hi = execution_state(cg, spec3, ghz(3.0))
        lo = execution_state(cg, spec3, ghz(0.75))
        assert lo.cpu_share > hi.cpu_share

    def test_effective_activity_below_profile_activity(self, spec3, cg):
        # Stalled cycles toggle less logic.
        state = execution_state(cg, spec3, ghz(3.0))
        assert state.effective_activity < cg.activity

    def test_l3_rate_near_profile_at_reference(self, spec3, cg):
        state = execution_state(cg, spec3, REFERENCE_FREQ_HZ)
        assert state.l3_rate_per_mcycles == pytest.approx(
            cg.l3_rate_per_mcycles, rel=0.02
        )

    def test_l3_rate_drops_under_contention(self, spec3, cg):
        # More stall cycles per access -> lower rate per cycle.
        base = execution_state(cg, spec3, ghz(3.0))
        crowded = execution_state(cg, spec3, ghz(3.0), contention=3.0)
        assert crowded.l3_rate_per_mcycles < base.l3_rate_per_mcycles


class TestBandwidthDemand:
    def test_demand_at_reference(self, spec3, cg):
        assert bandwidth_demand_gbs(cg, spec3, REFERENCE_FREQ_HZ) == (
            pytest.approx(cg.bandwidth_gbs, rel=0.01)
        )

    def test_demand_thins_at_low_frequency(self, spec3, cg):
        fast = bandwidth_demand_gbs(cg, spec3, ghz(3.0))
        slow = bandwidth_demand_gbs(cg, spec3, ghz(1.5))
        assert slow < fast


class TestFig8Ratio:
    def test_memory_bound_collapses(self, spec3, cg):
        assert multi_instance_performance_ratio(cg, spec3) < 0.5

    def test_cpu_bound_untouched(self, spec3, namd):
        assert multi_instance_performance_ratio(namd, spec3) > 0.95

    def test_ratio_never_above_one(self, spec3):
        for name in ("namd", "EP", "CG", "mcf", "gcc", "astar"):
            profile = get_benchmark(name)
            assert multi_instance_performance_ratio(profile, spec3) <= 1.0

    def test_ordering_matches_paper(self, spec3):
        # Fig. 8: CG and FT are the most contention-bound; namd and EP
        # the least.
        ratios = {
            name: multi_instance_performance_ratio(
                get_benchmark(name), spec3
            )
            for name in ("namd", "EP", "CG", "FT", "hmmer")
        }
        assert ratios["CG"] < ratios["FT"] < ratios["hmmer"]
        assert ratios["CG"] < ratios["namd"]
        assert ratios["CG"] < ratios["EP"]
