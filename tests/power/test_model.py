"""Tests for the chip power model."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.chip import ChipState
from repro.power.model import PowerModel
from repro.units import ghz


def idle_state(spec, voltage_mv=None, freq_hz=None):
    return ChipState(
        spec=spec,
        voltage_mv=voltage_mv or spec.nominal_voltage_mv,
        pmd_frequencies_hz=(freq_hz or spec.fmax_hz,) * spec.n_pmds,
        active_cores=frozenset(),
    )


def busy_state(spec, cores, voltage_mv=None, freq_hz=None):
    return ChipState(
        spec=spec,
        voltage_mv=voltage_mv or spec.nominal_voltage_mv,
        pmd_frequencies_hz=(freq_hz or spec.fmax_hz,) * spec.n_pmds,
        active_cores=frozenset(cores),
    )


def dynamic_w(power, spec, voltage_mv, freq_hz, activity):
    """Dynamic chip power with every core busy at one activity, W.

    Each core draws C * V^2 * f * activity, so the chip's sum scales the
    way one core's term does.
    """
    cores = range(spec.n_cores)
    state = busy_state(spec, cores, voltage_mv=voltage_mv, freq_hz=freq_hz)
    return power.chip_power(state, {c: activity for c in cores}).dynamic_w


class TestComponentScaling:
    def test_dynamic_power_quadratic_in_voltage(self, power3, spec3):
        hi = dynamic_w(power3, spec3, 870, spec3.fmax_hz, 1.0)
        lo = dynamic_w(power3, spec3, 435, spec3.fmax_hz, 1.0)
        assert hi / lo == pytest.approx(4.0)

    def test_dynamic_power_linear_in_frequency(self, power3, spec3):
        hi = dynamic_w(power3, spec3, 870, ghz(3.0), 1.0)
        lo = dynamic_w(power3, spec3, 870, ghz(1.5), 1.0)
        assert hi / lo == pytest.approx(2.0)

    def test_dynamic_power_linear_in_activity(self, power3, spec3):
        one = dynamic_w(power3, spec3, 870, spec3.fmax_hz, 1.0)
        half = dynamic_w(power3, spec3, 870, spec3.fmax_hz, 0.5)
        assert one / half == pytest.approx(2.0)

    def test_leakage_superlinear_in_voltage(self, power3):
        hi = power3.core_leakage_w(870)
        lo = power3.core_leakage_w(783)  # 10% lower
        assert hi / lo > 1.2

    def test_negative_activity_rejected(self, power3, spec3):
        with pytest.raises(ConfigurationError):
            dynamic_w(power3, spec3, 870, spec3.fmax_hz, -0.1)

    def test_zero_voltage_rejected(self, power3, spec3):
        state = ChipState(
            spec=spec3,
            voltage_mv=0,
            pmd_frequencies_hz=(spec3.fmax_hz,) * spec3.n_pmds,
            active_cores=frozenset({0}),
        )
        with pytest.raises(ConfigurationError):
            power3.chip_power(state, {0: 1.0})

    def test_gated_pmd_cheaper(self, power3, spec3):
        busy = power3.pmd_overhead_w(spec3.fmax_hz, 870, gated=False)
        gated = power3.pmd_overhead_w(spec3.fmax_hz, 870, gated=True)
        assert gated < busy


class TestUncore:
    def test_xgene3_uncore_scales_with_rail(self, power3):
        nominal = power3.uncore_power_w(870, 0.5)
        reduced = power3.uncore_power_w(783, 0.5)
        assert reduced < nominal

    def test_xgene2_uncore_off_rail(self, power2):
        # Section II.A: the X-Gene 2 L3 is in a separate domain.
        assert power2.uncore_power_w(980, 0.5) == power2.uncore_power_w(
            880, 0.5
        )

    def test_utilization_raises_uncore(self, power3):
        assert power3.uncore_power_w(870, 1.0) > power3.uncore_power_w(
            870, 0.0
        )

    def test_bad_utilization(self, power3):
        with pytest.raises(ConfigurationError):
            power3.uncore_power_w(870, 1.5)


class TestChipPower:
    def test_idle_below_busy(self, power3, spec3):
        idle = power3.chip_power(idle_state(spec3), {}, 0.0).total_w
        loads = {c: 1.0 for c in range(spec3.n_cores)}
        busy = power3.chip_power(
            busy_state(spec3, range(spec3.n_cores)), loads, 1.0
        ).total_w
        assert busy > 3 * idle

    def test_max_power_near_tdp(self, power2, power3, spec2, spec3):
        # Calibration sanity: all-cores-busy inside the TDP envelope.
        assert 0.4 * spec2.tdp_w < power2.max_power_w() < spec2.tdp_w
        assert 0.4 * spec3.tdp_w < power3.max_power_w() < spec3.tdp_w

    def test_voltage_reduction_saves_power(self, power3, spec3):
        loads = {c: 1.0 for c in range(8)}
        nominal = power3.chip_power(
            busy_state(spec3, range(8)), loads, 0.3
        ).total_w
        reduced = power3.chip_power(
            busy_state(spec3, range(8), voltage_mv=800), loads, 0.3
        ).total_w
        assert reduced < nominal

    def test_frequency_reduction_saves_power(self, power3, spec3):
        loads = {c: 1.0 for c in range(8)}
        fast = power3.chip_power(
            busy_state(spec3, range(8)), loads, 0.3
        ).total_w
        slow = power3.chip_power(
            busy_state(spec3, range(8), freq_hz=ghz(1.5)), loads, 0.3
        ).total_w
        assert slow < fast

    def test_breakdown_sums_to_total(self, power3, spec3):
        loads = {c: 0.8 for c in range(4)}
        breakdown = power3.chip_power(
            busy_state(spec3, range(4)), loads, 0.2
        )
        assert breakdown.total_w == pytest.approx(
            breakdown.dynamic_w
            + breakdown.leakage_w
            + breakdown.pmd_overhead_w
            + breakdown.uncore_w
            + breakdown.external_w
        )

    def test_external_power_constant(self, power3, spec3):
        idle = power3.chip_power(idle_state(spec3), {}, 0.0)
        busy = power3.chip_power(
            busy_state(spec3, range(32)),
            {c: 1.0 for c in range(32)},
            1.0,
        )
        assert idle.external_w == busy.external_w > 0

    def test_clustered_cheaper_than_spreaded_idle_pmds(
        self, power2, spec2
    ):
        # The power half of the Fig. 7 trade-off: 4 busy cores on 2 PMDs
        # draw less than on 4 PMDs at equal clocks and activity.
        loads4 = {c: 1.0 for c in (0, 1, 2, 3)}
        clustered = power2.chip_power(
            busy_state(spec2, (0, 1, 2, 3)), loads4, 0.2
        ).total_w
        loads_spread = {c: 1.0 for c in (0, 2, 4, 6)}
        spreaded = power2.chip_power(
            busy_state(spec2, (0, 2, 4, 6)), loads_spread, 0.2
        ).total_w
        assert clustered < spreaded

    def test_unknown_platform_needs_params(self, spec2):
        bad = spec2.__class__(**{**spec2.__dict__, "name": "Mystery"})
        with pytest.raises(ConfigurationError):
            PowerModel(bad)
        # But explicit params work.
        model = PowerModel(bad, params=PowerModel(spec2).params)
        assert model.idle_power_w(idle_state(bad)) > 0
