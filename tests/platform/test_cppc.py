"""Tests for the CPPC frequency controller and the top clock it sets.

The top clock of a set of PMDs is a
:class:`~repro.platform.chip.ChipState` query over the utilized PMDs.
"""

import pytest

from repro.errors import ConfigurationError
from repro.platform.chip import ChipState
from repro.platform.cppc import CppcController
from repro.units import ghz, MHZ


@pytest.fixture
def cppc2(spec2):
    return CppcController(spec2)


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


def request_each(cppc, freq_hz):
    """Set every PMD of ``cppc`` to ``freq_hz``, one request per PMD."""
    for pmd in range(cppc.spec.n_pmds):
        cppc.request(pmd, freq_hz)


class TestMaxFrequency:
    def test_max_over_all(self, cppc2):
        request_each(cppc2, ghz(1.2))
        cppc2.request(2, ghz(2.4))
        assert state_of(cppc2).max_active_frequency() == ghz(2.4)

    def test_max_over_subset(self, cppc2):
        request_each(cppc2, ghz(1.2))
        cppc2.request(2, ghz(2.4))
        assert state_of(cppc2, [0, 1]).max_active_frequency() == ghz(1.2)

    def test_max_of_empty_is_floor(self, cppc2, spec2):
        assert state_of(cppc2, []).max_active_frequency() == spec2.fmin_hz
