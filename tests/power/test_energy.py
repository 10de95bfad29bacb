"""Tests for energy accounting and E/D metrics (paper Section V)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.power.energy import (
    EnergyMeter,
    ed2p,
    penalty_percent,
    running_total,
    savings_percent,
)


class TestMetrics:
    def test_ed2p(self):
        assert ed2p(100.0, 10.0) == 10000.0

    def test_ed2p_weighs_delay_more(self):
        # Halving energy while doubling delay worsens ED2P.
        assert ed2p(50, 20) > ed2p(100, 10)

    def test_paper_table3_baseline_ed2p(self):
        # Table III: E=25578.30 J, D=3707 s -> ED2P = 351e9.
        assert ed2p(25578.30, 3707) == pytest.approx(351e9, rel=0.01)

    def test_savings_percent(self):
        assert savings_percent(100.0, 75.0) == pytest.approx(25.0)
        assert savings_percent(100.0, 110.0) == pytest.approx(-10.0)

    def test_penalty_percent(self):
        assert penalty_percent(3707, 3829) == pytest.approx(3.29, abs=0.01)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            savings_percent(0.0, 1.0)


class TestEnergyMeter:
    def test_accumulates(self):
        meter = EnergyMeter()
        meter.accumulate(10.0, 5.0)
        meter.accumulate(20.0, 5.0)
        assert meter.energy_j == 150.0
        assert meter.elapsed_s == 10.0

    def test_zero_interval_noop(self):
        meter = EnergyMeter()
        meter.accumulate(10.0, 0.0)
        assert meter.energy_j == 0.0

    def test_negative_interval_rejected(self):
        meter = EnergyMeter()
        with pytest.raises(ConfigurationError):
            meter.accumulate(10.0, -1.0)

    def test_negative_power_rejected(self):
        meter = EnergyMeter()
        with pytest.raises(ConfigurationError):
            meter.accumulate(-1.0, 1.0)

    def test_samples_kept_on_request(self):
        meter = EnergyMeter(keep_samples=True)
        meter.accumulate(10.0, 1.0)
        meter.accumulate(12.0, 2.0)
        assert meter.samples == [(0.0, 1.0, 10.0), (1.0, 2.0, 12.0)]

    def test_samples_not_kept_by_default(self):
        meter = EnergyMeter()
        meter.accumulate(10.0, 1.0)
        assert meter.samples == []


#: Intervals the simulator meters: monitor periods and odd remainders.
_INTERVALS = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False),
    ),
    max_size=30,
)


class TestIntervals:
    @given(
        st.floats(0.0, 500.0, allow_nan=False),
        _INTERVALS,
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_one_accumulate_per_interval(self, power, dts, samples):
        one_by_one = EnergyMeter(keep_samples=samples)
        batched = EnergyMeter(keep_samples=samples)
        for meter in (one_by_one, batched):
            meter.accumulate(power, 0.3)
        for dt in dts:
            one_by_one.accumulate(power, dt)
        batched.accumulate_intervals(power, np.array(dts, dtype=float))
        assert batched == one_by_one

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyMeter().accumulate_intervals(1.0, np.array([1.0, -1.0]))

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyMeter().accumulate_intervals(-1.0, np.array([1.0]))

    @given(
        st.floats(-1e12, 1e12, allow_nan=False),
        st.lists(st.floats(-1e9, 1e9, allow_nan=False), max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_running_total_adds_left_to_right(self, start, values):
        expected = start
        for value in values:
            expected += value
        assert running_total(start, np.array(values, dtype=float)) == expected
