"""Tests for the exception hierarchy and unit helpers."""

import pytest

from repro import errors
from repro.units import (
    GHZ,
    MHZ,
    ONE_MILLION_CYCLES,
    fmt_freq,
    fmt_mv,
    ghz,
    hz_to_ghz,
    joules,
    mhz,
    mv_to_v,
    v_to_mv,
)


class TestExceptionHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "VoltageRangeError",
            "PlacementError",
            "SchedulingError",
            "SimulationError",
            "CharacterizationError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_single_except_clause_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.SimulationError("clock moved backwards")


class TestUnits:
    def test_constants(self):
        assert GHZ == 1_000_000_000
        assert MHZ == 1_000_000
        assert ONE_MILLION_CYCLES == 1_000_000

    def test_ghz_mhz(self):
        assert ghz(2.4) == 2_400_000_000
        assert mhz(900) == 900_000_000
        assert hz_to_ghz(1_500_000_000) == 1.5

    def test_voltage_conversions(self):
        assert mv_to_v(980) == 0.98
        assert v_to_mv(0.87) == pytest.approx(870)

    def test_joules(self):
        assert joules(10.0, 3.5) == 35.0

    def test_fmt_freq(self):
        assert fmt_freq(ghz(2.4)) == "2.4GHz"
        assert fmt_freq(ghz(3.0)) == "3GHz"
        assert fmt_freq(mhz(900)) == "900MHz"
        assert fmt_freq(mhz(375)) == "375MHz"

    def test_fmt_mv(self):
        assert fmt_mv(870) == "870mV"
        assert fmt_mv(912.6) == "913mV"
