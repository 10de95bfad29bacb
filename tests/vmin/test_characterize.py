"""Tests for the Vmin characterization campaigns (paper Section III)."""

import pytest

from repro.allocation import Allocation
from repro.errors import CharacterizationError
from repro.units import ghz
from repro.vmin.characterize import VminCampaign
from repro.vmin.faults import OUTCOME_PASS


@pytest.fixture
def campaign2(spec2):
    return VminCampaign(spec2)


@pytest.fixture
def campaign3(spec3):
    return VminCampaign(spec3)


class TestSafeVminSearch:
    def test_measured_vmin_covers_truth(self, campaign2, spec2):
        point = campaign2.point("CG", 8, Allocation.CLUSTERED, ghz(2.4))
        result = campaign2.measure_safe_vmin(point)
        assert result.safe_vmin_mv >= result.true_vmin_mv
        assert result.safe_vmin_mv - result.true_vmin_mv < campaign2.step_mv

    def test_guardband_positive(self, campaign2):
        point = campaign2.point("namd", 8, Allocation.CLUSTERED, ghz(2.4))
        result = campaign2.measure_safe_vmin(point)
        assert result.guardband_mv > 0
        assert result.nominal_mv == 980

    def test_trials_mode_close_to_analytic(self, campaign3, spec3):
        point = campaign3.point("FT", 32, Allocation.CLUSTERED, ghz(3.0))
        analytic = campaign3.measure_safe_vmin(point, mode="analytic")
        trials = campaign3.measure_safe_vmin(point, mode="trials")
        # Stochastic campaigns can miss tiny pfail at the first unsafe
        # step, but never by more than a step or two.
        assert abs(trials.safe_vmin_mv - analytic.safe_vmin_mv) <= 20

    @pytest.mark.parametrize(
        "call",
        [
            lambda c, p: c.measure_safe_vmin(p, mode="psychic"),
            lambda c, p: c.scan_unsafe_region(p, mode="psychic"),
            lambda c, p: c.scan_unsafe_region(
                p, mode="psychic", safe_vmin_mv=900
            ),
        ],
        ids=["search", "scan", "scan-from-safe"],
    )
    def test_unknown_mode_rejected(self, campaign2, call):
        point = campaign2.point("CG", 8, Allocation.CLUSTERED, ghz(2.4))
        with pytest.raises(CharacterizationError):
            call(campaign2, point)

    def test_steps_descend_from_nominal(self, campaign2):
        point = campaign2.point("CG", 4, Allocation.SPREADED, ghz(2.4))
        result = campaign2.measure_safe_vmin(point)
        voltages = [s.voltage_mv for s in result.steps]
        assert voltages[0] == 980
        assert voltages == sorted(voltages, reverse=True)

    def test_lower_frequency_lower_vmin(self, campaign2):
        hi = campaign2.measure_safe_vmin(
            campaign2.point("CG", 8, Allocation.CLUSTERED, ghz(2.4))
        )
        lo = campaign2.measure_safe_vmin(
            campaign2.point("CG", 8, Allocation.CLUSTERED, ghz(0.9))
        )
        assert lo.safe_vmin_mv < hi.safe_vmin_mv


class TestUnsafeScan:
    def test_scan_reaches_crash_point(self, campaign2):
        point = campaign2.point("CG", 8, Allocation.CLUSTERED, ghz(2.4))
        scan = campaign2.scan_unsafe_region(point)
        assert scan.crash_voltage_mv < scan.safe_vmin_mv
        last = scan.steps[-1]
        assert last.pfail >= 1.0 or last.failures == last.runs

    def test_scan_runs_60_per_level(self, campaign2):
        point = campaign2.point("CG", 8, Allocation.CLUSTERED, ghz(2.4))
        scan = campaign2.scan_unsafe_region(point)
        assert all(s.runs == 60 for s in scan.steps)

    def test_failure_mix_recorded(self, campaign2):
        point = campaign2.point("CG", 8, Allocation.CLUSTERED, ghz(2.4))
        scan = campaign2.scan_unsafe_region(point, mode="trials")
        deep = scan.steps[-1]
        assert deep.failures > 0
        assert sum(deep.outcomes.values()) >= deep.runs

    def test_outcome_bookkeeping_consistent(self, campaign3):
        point = campaign3.point("milc", 16, Allocation.SPREADED, ghz(3.0))
        scan = campaign3.scan_unsafe_region(point, mode="trials")
        for step in scan.steps:
            assert step.outcomes[OUTCOME_PASS] + step.failures == step.runs


class TestPfailCurve:
    def test_curve_monotone(self, campaign3):
        point = campaign3.point("CG", 32, Allocation.CLUSTERED, ghz(3.0))
        curve = campaign3.pfail_curve(point, range(870, 700, -10))
        values = list(curve.values())
        assert values == sorted(values)

    def test_curve_zero_at_nominal(self, campaign3, spec3):
        point = campaign3.point("CG", 32, Allocation.CLUSTERED, ghz(3.0))
        curve = campaign3.pfail_curve(point, [spec3.nominal_voltage_mv])
        assert curve[spec3.nominal_voltage_mv] == 0.0


class TestValidation:
    def test_point_core_count_mismatch(self, campaign2):
        with pytest.raises(CharacterizationError):
            campaign2.point(
                "CG", 4, Allocation.CLUSTERED, ghz(2.4), cores=(0, 1)
            )

    def test_bad_step(self, spec2):
        with pytest.raises(CharacterizationError):
            VminCampaign(spec2, step_mv=0)

    def test_bad_runs(self, spec2):
        with pytest.raises(CharacterizationError):
            VminCampaign(spec2, pass_runs=0)

    def test_point_label(self, campaign2):
        point = campaign2.point("CG", 4, Allocation.SPREADED, ghz(2.4))
        assert point.label() == "4T(spreaded)@2.4GHz"
