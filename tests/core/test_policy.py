"""Tests for the daemon's Vmin policy table (paper Table II)."""

import pytest

from repro.core.policy import VminPolicyTable
from repro.errors import ConfigurationError
from repro.platform.specs import FrequencyClass, get_spec
from repro.units import ghz
from repro.vmin.droop import droop_ladder
from repro.vmin.model import VminModel
from repro.workloads.suites import characterization_set


class TestConstruction:
    def test_covers_all_classes(self, policy3, spec3):
        for droop_class in range(len(droop_ladder(spec3))):
            for freq_class in (FrequencyClass.HIGH, FrequencyClass.SKIP):
                entry = policy3.entry(freq_class, droop_class)
                assert entry.vmin_mv <= spec3.nominal_voltage_mv

    def test_xgene2_has_divide_rows(self, policy2):
        entry = policy2.entry(FrequencyClass.DIVIDE, 0)
        assert entry.vmin_mv < policy2.entry(FrequencyClass.SKIP, 0).vmin_mv

    def test_xgene3_divide_falls_back_to_skip(self, policy3):
        divide = policy3.entry(FrequencyClass.DIVIDE, 2)
        skip = policy3.entry(FrequencyClass.SKIP, 2)
        assert divide.vmin_mv == skip.vmin_mv

    def test_missing_entry_rejected(self, spec3):
        with pytest.raises(ConfigurationError):
            VminPolicyTable(spec3, {(FrequencyClass.HIGH, 0): 800})

    def test_negative_guard_rejected(self, spec3, policy3):
        entries = {
            (e.freq_class, e.droop_class): e.vmin_mv
            for e in policy3.rows()
        }
        with pytest.raises(ConfigurationError):
            VminPolicyTable(spec3, entries, guard_mv=-1)


class TestMonotonicity:
    """The fail-safe transition logic relies on these orderings."""

    def test_vmin_rises_with_droop_class(self, policy3, spec3):
        for freq_class in (FrequencyClass.HIGH, FrequencyClass.SKIP):
            values = [
                policy3.entry(freq_class, c).vmin_mv
                for c in range(len(droop_ladder(spec3)))
            ]
            assert values == sorted(values)

    def test_high_at_least_skip(self, policy3, spec3):
        for droop_class in range(len(droop_ladder(spec3))):
            assert (
                policy3.entry(FrequencyClass.HIGH, droop_class).vmin_mv
                >= policy3.entry(FrequencyClass.SKIP, droop_class).vmin_mv
            )


class TestSafety:
    """The table must cover the ground truth for every configuration.

    This is the paper's argument for measured tables over predictors:
    the daemon never undervolts because the table is a worst case.
    """

    @pytest.mark.parametrize("nthreads", [1, 2, 4, 8, 16, 32])
    def test_covers_ground_truth_xgene3(self, policy3, spec3, nthreads):
        from repro.allocation import Allocation, cores_for

        model = VminModel(spec3)
        for allocation in (Allocation.CLUSTERED, Allocation.SPREADED):
            cores = cores_for(spec3, nthreads, allocation)
            pmds = len({spec3.pmd_of_core(c) for c in cores})
            for freq in (spec3.fmax_hz, spec3.half_frequency_hz):
                policy_v = policy3.safe_voltage_mv(pmds, freq)
                for profile in characterization_set():
                    truth = model.safe_vmin_mv(
                        freq, cores, profile.vmin_delta_mv
                    )
                    assert policy_v >= truth

    def test_guard_adds_margin(self, spec2):
        tight = VminPolicyTable.from_characterization(spec2, guard_mv=0)
        guarded = VminPolicyTable.from_characterization(spec2, guard_mv=10)
        assert guarded.safe_voltage_mv(4, spec2.fmax_hz) == (
            tight.safe_voltage_mv(4, spec2.fmax_hz) + 10
        )

    def test_never_above_nominal(self, policy2, spec2):
        assert (
            policy2.safe_voltage_mv(spec2.n_pmds, spec2.fmax_hz)
            <= spec2.nominal_voltage_mv
        )


class TestQueries:
    def test_fewer_pmds_lower_voltage(self, policy3, spec3):
        low = policy3.safe_voltage_mv(2, spec3.fmax_hz)
        high = policy3.safe_voltage_mv(16, spec3.fmax_hz)
        assert low < high

    def test_divide_point_deep_on_xgene2(self, policy2, spec2):
        divide = policy2.safe_voltage_mv(1, ghz(0.9))
        high = policy2.safe_voltage_mv(1, ghz(2.4))
        # The ~12% clock-division drop (Fig. 10).
        assert high - divide > 0.08 * spec2.nominal_voltage_mv

    def test_zero_pmds_treated_as_one(self, policy3, spec3):
        assert policy3.safe_voltage_mv(
            0, spec3.fmin_hz
        ) == policy3.safe_voltage_mv(1, spec3.fmin_hz)

    def test_rows_render(self, policy3):
        rows = policy3.rows()
        assert len(rows) >= 8  # 4 droop classes x 2+ freq classes


class TestMemoizedLookup:
    """``safe_voltage_mv`` keeps its answers; a table never changes."""

    @pytest.mark.parametrize("platform", ["xgene2", "xgene3", "xgene3-xl"])
    def test_answers_equal_a_fresh_tables_first(self, platform):
        spec = get_spec(platform)
        table = VminPolicyTable.from_characterization(spec, guard_mv=7)
        entries = {
            (e.freq_class, e.droop_class): e.vmin_mv for e in table.rows()
        }
        for asked in range(2):
            for pmds in range(spec.n_pmds + 1):
                for freq in spec.frequency_steps():
                    fresh = VminPolicyTable(spec, entries, guard_mv=7)
                    assert table.safe_voltage_mv(pmds, freq) == (
                        fresh.safe_voltage_mv(pmds, freq)
                    ), (asked, pmds, freq)

    def test_guard_is_read_only(self, policy3):
        with pytest.raises(AttributeError):
            policy3.guard_mv = 0
