"""Tests for the sub-Vmin failure model (paper Section III.B, Fig. 5)."""

import pytest

from repro.errors import ConfigurationError
from repro.vmin.characterize import VminCampaign
from repro.vmin.faults import (
    FAULT_OUTCOMES,
    OUTCOME_CRASH,
    OUTCOME_PASS,
    OUTCOME_SDC,
    FaultModel,
)


@pytest.fixture
def model():
    return FaultModel()


class TestPfailCurve:
    def test_zero_at_and_above_vmin(self, model):
        assert model.pfail(800, 800, 0) == 0.0
        assert model.pfail(900, 800, 0) == 0.0

    def test_one_at_crash_point(self, model):
        crash_mv = 800 - model.width_mv(0)
        assert model.pfail(crash_mv, 800, 0) == 1.0

    def test_monotone_decreasing_in_voltage(self, model):
        values = [model.pfail(v, 800, 1) for v in range(810, 720, -5)]
        assert values == sorted(values)

    def test_larger_droop_class_steeper(self, model):
        # Fig. 5: max-threads configurations fail more steeply.
        mild = model.pfail(790, 800, 0)
        severe = model.pfail(790, 800, 3)
        assert severe > mild

    def test_width_shrinks_with_droop_class(self, model):
        widths = [model.width_mv(c) for c in range(4)]
        assert widths == sorted(widths, reverse=True)
        assert min(widths) >= model.MIN_WIDTH_MV

    def test_width_bad_class(self, model):
        with pytest.raises(ConfigurationError):
            model.width_mv(7)


class TestOutcomeMix:
    def test_mix_sums_to_one(self, model):
        mix = model.outcome_mix(780, 800, 1)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_sdc_dominates_near_vmin(self, model):
        mix = model.outcome_mix(799, 800, 1)
        assert mix[OUTCOME_SDC] > mix[OUTCOME_CRASH]

    def test_crash_dominates_deep(self, model):
        crash_mv = 800 - model.width_mv(1)
        mix = model.outcome_mix(crash_mv, 800, 1)
        assert mix[OUTCOME_CRASH] > mix[OUTCOME_SDC]

    def test_all_outcomes_present(self, model):
        mix = model.outcome_mix(780, 800, 1)
        assert set(mix) == set(FAULT_OUTCOMES)


class TestSampling:
    """Runs drawn as a trials campaign draws them, one level at a time."""

    @pytest.fixture
    def campaign(self, spec2, model):
        return VminCampaign(spec2, fault_model=model, seed=42)

    def test_always_passes_above_vmin(self, campaign):
        record = campaign._run_level(820, 800, 1, 100)
        assert record.outcomes == {OUTCOME_PASS: 100}

    def test_always_fails_below_crash(self, campaign, model):
        crash_mv = 800 - model.width_mv(1)
        record = campaign._run_level(crash_mv - 5, 800, 1, 100)
        assert record.failures == 100

    def test_sampling_statistics_match_pfail(self, campaign, model):
        voltage, vmin, klass = 785, 800, 1
        p = model.pfail(voltage, vmin, klass)
        n = 4000
        record = campaign._run_level(voltage, vmin, klass, n)
        assert record.failures / n == pytest.approx(p, abs=0.03)
