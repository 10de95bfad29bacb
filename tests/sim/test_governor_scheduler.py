"""Tests for the governor policies.

The default spread admission they run under is tested with the
simulator (``tests/sim/test_system.py::TestAdmitCores``).
"""

import pytest

from repro.errors import ConfigurationError
from repro.policies.actuation import apply_action
from repro.policies.governors import (
    OndemandPolicy,
    PerformancePolicy,
    PowersavePolicy,
)
from repro.policies.surfaces import Observation, PolicyEvent


class _BareSystem:
    """The minimal system surface a governor observation touches."""

    def __init__(self, chip):
        self.chip = chip
        self.spec = chip.spec
        self.now = 0.0

    def running_processes(self):
        return []


def govern(chip, policy, event=PolicyEvent.STARTED):
    """Dispatch one event to ``policy`` and actuate its action."""
    system = _BareSystem(chip)
    action = policy.decide(Observation(system, event))
    if action is not None:
        apply_action(system, action)
    return action


class TestOndemandChipScope:
    def test_idle_chip_parks_all(self, chip2, spec2):
        govern(chip2, OndemandPolicy())
        assert chip2.cppc.frequencies() == (spec2.fmin_hz,) * 4

    def test_any_busy_core_raises_all(self, chip2, spec2):
        chip2.occupy(5, "p")
        govern(chip2, OndemandPolicy())
        assert chip2.cppc.frequencies() == (spec2.fmax_hz,) * 4

    def test_returns_to_floor_after_release(self, chip2, spec2):
        policy = OndemandPolicy()
        chip2.occupy(5, "p")
        govern(chip2, policy)
        chip2.release_occupant("p")
        govern(chip2, policy)
        assert chip2.cppc.frequencies() == (spec2.fmin_hz,) * 4

    def test_no_action_on_admit_or_tick(self, chip2):
        policy = OndemandPolicy()
        assert govern(chip2, policy, PolicyEvent.ADMIT) is None
        assert govern(chip2, policy, PolicyEvent.TICK) is None


class TestOndemandPmdScope:
    def test_only_busy_pmds_raised(self, chip2, spec2):
        chip2.occupy(0, "p")
        govern(chip2, OndemandPolicy(scope="pmd"))
        freqs = chip2.cppc.frequencies()
        assert freqs[0] == spec2.fmax_hz
        assert freqs[1:] == (spec2.fmin_hz,) * 3

    def test_unknown_scope_rejected(self):
        with pytest.raises(ConfigurationError):
            OndemandPolicy(scope="socket")


class TestPinnedGovernors:
    def test_performance(self, chip2, spec2):
        for pmd in range(spec2.n_pmds):
            chip2.set_pmd_frequency(pmd, spec2.fmin_hz)
        govern(chip2, PerformancePolicy())
        assert chip2.cppc.frequencies() == (spec2.fmax_hz,) * 4

    def test_powersave(self, chip2, spec2):
        govern(chip2, PowersavePolicy())
        assert chip2.cppc.frequencies() == (spec2.fmin_hz,) * 4
