"""Tests for the SLIMpro voltage-regulator model."""

import pytest

from repro.errors import VoltageRangeError
from repro.platform.slimpro import SlimPro


@pytest.fixture
def regulator():
    return SlimPro(nominal_mv=980, min_mv=600)


class TestVoltageSetting:
    def test_powers_on_at_nominal(self, regulator):
        assert regulator.voltage_mv == 980

    def test_set_voltage(self, regulator):
        assert regulator.set_voltage(900) == 900
        assert regulator.voltage_mv == 900

    def test_quantizes_up_to_step(self, regulator):
        # Rounding up keeps safe-Vmin floors safe.
        assert regulator.set_voltage(871) == 875
        assert regulator.set_voltage(874.2) == 875

    def test_exact_step_unchanged(self, regulator):
        assert regulator.quantize(875) == 875

    def test_below_min_rejected(self, regulator):
        with pytest.raises(VoltageRangeError):
            regulator.set_voltage(500)

    def test_above_max_rejected(self, regulator):
        with pytest.raises(VoltageRangeError):
            regulator.set_voltage(990)

    def test_max_defaults_to_nominal(self, regulator):
        assert regulator.max_mv == 980


class TestTransitions:
    def test_transitions_recorded(self, regulator):
        regulator.set_voltage(900, time_s=1.0)
        regulator.set_voltage(800, time_s=2.0)
        assert regulator.transition_count() == 2
        first = regulator.transitions[0]
        assert (first.from_mv, first.to_mv, first.time_s) == (980, 900, 1.0)

    def test_no_transition_on_same_voltage(self, regulator):
        regulator.set_voltage(900)
        regulator.set_voltage(900)
        assert regulator.transition_count() == 1


class TestValidation:
    def test_bad_step(self):
        with pytest.raises(VoltageRangeError):
            SlimPro(nominal_mv=980, min_mv=600, step_mv=0)

    def test_nominal_outside_range(self):
        with pytest.raises(VoltageRangeError):
            SlimPro(nominal_mv=500, min_mv=600)
