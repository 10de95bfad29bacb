"""Tests for the CPPC frequency controller and the classes of its clocks.

The Vmin-relevant frequency class and top clock of a set of PMDs are
:class:`~repro.platform.chip.ChipState` queries over the utilized PMDs.
"""

import pytest

from repro.errors import ConfigurationError
from repro.platform.chip import ChipState
from repro.platform.cppc import CppcController
from repro.platform.specs import FrequencyClass
from repro.units import ghz, MHZ


@pytest.fixture
def cppc2(spec2):
    return CppcController(spec2)


@pytest.fixture
def cppc3(spec3):
    return CppcController(spec3)


class TestRequests:
    def test_powers_on_at_fmax(self, cppc2, spec2):
        assert cppc2.frequencies() == (spec2.fmax_hz,) * spec2.n_pmds

    def test_per_pmd_setting(self, cppc2):
        cppc2.request(1, ghz(1.2))
        assert cppc2.frequency_of(1) == ghz(1.2)
        assert cppc2.frequency_of(0) == ghz(2.4)

    def test_request_snaps_to_steps(self, cppc2):
        applied = cppc2.request(0, ghz(1.0))
        assert applied == 900 * MHZ

    def test_request_all(self, cppc2, spec2):
        cppc2.request_all(ghz(1.2))
        assert cppc2.frequencies() == (ghz(1.2),) * spec2.n_pmds

    def test_bad_pmd(self, cppc2):
        with pytest.raises(ConfigurationError):
            cppc2.request(4, ghz(1.2))

    def test_transitions_recorded_only_on_change(self, cppc2):
        cppc2.request(0, ghz(2.4))  # already there
        assert cppc2.transition_count() == 0
        cppc2.request(0, ghz(1.2))
        cppc2.request(0, ghz(1.2))
        assert cppc2.transition_count() == 1


def state_of(cppc, pmds=None):
    """A chip snapshot at the controller's clocks, ``pmds`` utilized."""
    spec = cppc.spec
    pmds = range(spec.n_pmds) if pmds is None else pmds
    return ChipState(
        spec=spec,
        voltage_mv=spec.nominal_voltage_mv,
        pmd_frequencies_hz=cppc.frequencies(),
        active_cores=frozenset(spec.cores_of_pmd(pmd)[0] for pmd in pmds),
    )


class TestFrequencyClasses:
    def test_worst_class_is_high_when_any_pmd_high(self, cppc2):
        cppc2.request_all(900 * MHZ)
        cppc2.request(3, ghz(2.4))
        assert (
            state_of(cppc2).worst_active_frequency_class()
            is FrequencyClass.HIGH
        )

    def test_worst_class_subset(self, cppc2):
        cppc2.request_all(ghz(2.4))
        cppc2.request(0, 900 * MHZ)
        assert (
            state_of(cppc2, [0]).worst_active_frequency_class()
            is FrequencyClass.DIVIDE
        )
        assert (
            state_of(cppc2, [0, 1]).worst_active_frequency_class()
            is FrequencyClass.HIGH
        )

    def test_xgene3_low_is_skip(self, cppc3):
        cppc3.request_all(375 * MHZ)
        assert (
            state_of(cppc3).worst_active_frequency_class()
            is FrequencyClass.SKIP
        )

    def test_class_of_single_pmd(self, cppc2):
        cppc2.request(2, ghz(1.2))
        assert (
            state_of(cppc2, [2]).worst_active_frequency_class()
            is FrequencyClass.SKIP
        )


class TestMaxFrequency:
    def test_max_over_all(self, cppc2):
        cppc2.request_all(ghz(1.2))
        cppc2.request(2, ghz(2.4))
        assert state_of(cppc2).max_active_frequency() == ghz(2.4)

    def test_max_over_subset(self, cppc2):
        cppc2.request_all(ghz(1.2))
        cppc2.request(2, ghz(2.4))
        assert state_of(cppc2, [0, 1]).max_active_frequency() == ghz(1.2)

    def test_max_of_empty_is_floor(self, cppc2, spec2):
        assert state_of(cppc2, []).max_active_frequency() == spec2.fmin_hz
