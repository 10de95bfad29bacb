"""Tests for the thermal model (environment extension)."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.thermal import ThermalModel, ThermalParams


@pytest.fixture
def thermal3(spec3):
    return ThermalModel(spec3)


class TestRcResponse:
    def test_starts_at_ambient(self, thermal3):
        assert thermal3.temperature_c == thermal3.ambient_c

    def test_steady_state(self, thermal3):
        target = thermal3.steady_state_c(40.0)
        assert target == pytest.approx(
            thermal3.ambient_c + 0.45 * 40.0
        )

    def test_approaches_steady_state(self, thermal3):
        for _ in range(200):
            thermal3.step(40.0, 1.0)
        assert thermal3.temperature_c == pytest.approx(
            thermal3.steady_state_c(40.0), abs=0.1
        )

    def test_time_constant_behaviour(self, thermal3):
        # After one time constant the gap closed by ~63%.
        target = thermal3.steady_state_c(40.0)
        start = thermal3.temperature_c
        thermal3.step(40.0, thermal3.params.time_constant_s)
        progress = (thermal3.temperature_c - start) / (target - start)
        assert progress == pytest.approx(0.632, abs=0.01)

    def test_cools_down_when_idle(self, thermal3):
        for _ in range(100):
            thermal3.step(40.0, 1.0)
        hot = thermal3.temperature_c
        for _ in range(100):
            thermal3.step(2.0, 1.0)
        assert thermal3.temperature_c < hot

    def test_zero_dt_noop(self, thermal3):
        before = thermal3.temperature_c
        thermal3.step(40.0, 0.0)
        assert thermal3.temperature_c == before

    def test_validation(self, spec3, thermal3):
        with pytest.raises(ConfigurationError):
            thermal3.step(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            thermal3.step(1.0, -1.0)
        with pytest.raises(ConfigurationError):
            ThermalParams(resistance_c_per_w=0, time_constant_s=1)


class TestDerivedEffects:
    def test_leakage_unity_at_calibration(self, thermal3):
        cal = thermal3.params.calibration_c
        assert thermal3.leakage_multiplier(cal) == pytest.approx(1.0)

    def test_leakage_doubles_per_35c(self, thermal3):
        cal = thermal3.params.calibration_c
        assert thermal3.leakage_multiplier(cal + 35.0) == pytest.approx(
            2.0, rel=0.01
        )

    def test_cold_chip_leaks_less(self, thermal3):
        cal = thermal3.params.calibration_c
        assert thermal3.leakage_multiplier(cal - 20.0) < 1.0

    def test_vmin_shift_zero_at_or_below_calibration(self, thermal3):
        cal = thermal3.params.calibration_c
        assert thermal3.vmin_shift_mv(cal) == 0.0
        assert thermal3.vmin_shift_mv(cal - 30.0) == 0.0

    def test_vmin_shift_grows_with_heat(self, thermal3):
        cal = thermal3.params.calibration_c
        assert thermal3.vmin_shift_mv(cal + 20.0) == pytest.approx(7.0)

    def test_params_for_both_platforms(self, spec2, spec3):
        # The small package heats more per watt.
        assert (
            ThermalModel(spec2).params.resistance_c_per_w
            > ThermalModel(spec3).params.resistance_c_per_w
        )

    def test_unknown_platform_needs_params(self, spec2):
        bad = spec2.__class__(**{**spec2.__dict__, "name": "Mystery"})
        with pytest.raises(ConfigurationError):
            ThermalModel(bad)


class TestSystemIntegration:
    def test_disabled_by_default(self, chip2, short_workload2):
        from repro.policies.governors import BaselinePolicy
        from repro.sim import ServerSystem

        system = ServerSystem(
            chip2, short_workload2, BaselinePolicy()
        )
        system.run()
        (lane,) = system.lanes
        assert lane.thermal is None
        assert lane.temperature_series == []

    def test_temperature_tracks_load(self, spec2, short_workload2):
        from repro.platform.chip import Chip
        from repro.policies.governors import BaselinePolicy
        from repro.sim import ServerSystem, SimLane

        thermal = ThermalModel(spec2)
        lane = SimLane(thermal=thermal)
        system = ServerSystem(
            Chip(spec2),
            short_workload2,
            BaselinePolicy(),
            lanes=[lane],
        )
        system.run()
        temps = [t for _, t in lane.temperature_series]
        assert temps
        assert max(temps) > thermal.ambient_c + 1.0

    def test_hot_run_uses_more_energy(self, spec2, short_workload2):
        from repro.platform.chip import Chip
        from repro.policies.governors import BaselinePolicy
        from repro.sim import ServerSystem, SimLane

        def energy(ambient):
            system = ServerSystem(
                Chip(spec2),
                short_workload2,
                BaselinePolicy(),
                lanes=[SimLane(thermal=ThermalModel(spec2, ambient_c=ambient))],
            )
            return system.run().energy_j

        assert energy(60.0) > energy(10.0)

    def test_hot_chip_raises_required_vmin(self, spec2):
        # At an extreme ambient the audit adds the thermal shift: an
        # undervolted-but-normally-safe rail becomes a violation.
        from repro.platform.chip import Chip
        from repro.policies.daemon import OnlineMonitoringDaemon
        from repro.sim import ServerSystem, SimLane
        from repro.workloads.generator import JobSpec, Workload

        workload = Workload(
            jobs=(JobSpec(0, "namd", 8, 0.0),),
            duration_s=600.0,
            max_cores=8,
            seed=0,
        )

        def violations(ambient):
            system = ServerSystem(
                Chip(spec2),
                workload,
                OnlineMonitoringDaemon(spec2),
                lanes=[SimLane(thermal=ThermalModel(spec2, ambient_c=ambient))],
            )
            return len(system.run().violations)

        assert violations(25.0) == 0
        assert violations(95.0) > 0
