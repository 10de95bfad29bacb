"""Deterministic tests of stack arbitration and the registry."""

import pytest

from repro.core.policy import VminPolicyTable
from repro.errors import ConfigurationError
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec
from repro.policies.arbitration import PolicyStack
from repro.policies.cli import policy_main
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.policies.ed2p import Ed2pPolicy
from repro.policies.governors import BaselinePolicy, PowersavePolicy
from repro.policies.registry import (
    CONFIG_POLICY_KEYS,
    describe_policy,
    get_policy_descriptor,
    policy_keys,
    policy_names,
    rail_mode,
    resolve_policy,
)
from repro.policies.surfaces import Action, Observation, Policy, PolicyEvent
from repro.telemetry import names as metric_names

SPEC2 = xgene2_spec()
TABLE2 = VminPolicyTable.from_characterization(SPEC2)


class _Fixed(Policy):
    """Returns one canned action for every event."""

    def __init__(self, action):
        self.action = action

    def decide(self, obs):
        return self.action


class _FakeProcess:
    def __init__(self, pid, cores):
        self.pid = pid
        self.cores = tuple(cores)
        self.nthreads = len(self.cores)


class _BareSystem:
    def __init__(self, chip, processes=()):
        self.chip = chip
        self.spec = chip.spec
        self.now = 0.0
        self._processes = list(processes)

    def running_processes(self):
        return list(self._processes)


def observe(chip, event=PolicyEvent.STARTED, processes=()):
    return Observation(_BareSystem(chip, processes), event)


class TestArbitration:
    def make_stack(self, *policies):
        return PolicyStack(SPEC2, policies, table=TABLE2)

    def test_needs_at_least_one_member(self):
        with pytest.raises(ConfigurationError):
            PolicyStack(SPEC2, [], table=TABLE2)

    def test_raise_merges_as_maximum(self):
        stack = self.make_stack(
            _Fixed(Action(raise_voltage_mv=920)),
            _Fixed(Action(raise_voltage_mv=960)),
        )
        action = stack.decide(observe(Chip(SPEC2)))
        assert action.raise_voltage_mv == 960
        assert stack.overrides == 0

    def test_settle_voltage_first_wins_and_counts_override(self):
        nominal = SPEC2.nominal_voltage_mv
        stack = self.make_stack(
            _Fixed(Action(voltage_mv=nominal)),
            _Fixed(Action(voltage_mv=nominal - 10)),
        )
        action = stack.decide(observe(Chip(SPEC2)))
        assert action.voltage_mv == nominal
        assert stack.overrides == 1

    def test_freqs_merge_per_pmd_first_writer(self):
        stack = self.make_stack(
            _Fixed(Action(pmd_freqs_hz={0: SPEC2.fmax_hz})),
            _Fixed(
                Action(
                    pmd_freqs_hz={
                        0: SPEC2.fmin_hz,  # loses PMD 0
                        1: SPEC2.fmin_hz,  # wins PMD 1 uncontested
                    }
                )
            ),
        )
        action = stack.decide(observe(Chip(SPEC2)))
        assert action.pmd_freqs_hz[0] == SPEC2.fmax_hz
        assert action.pmd_freqs_hz[1] == SPEC2.fmin_hz
        assert stack.overrides == 1

    def test_power_cap_merges_as_minimum(self):
        stack = self.make_stack(
            _Fixed(Action(power_cap_w=30.0)),
            _Fixed(Action(power_cap_w=22.0)),
        )
        action = stack.decide(observe(Chip(SPEC2)))
        assert action.power_cap_w == 22.0

    def test_clamp_lifts_undervolting_member(self):
        stack = self.make_stack(_Fixed(Action(voltage_mv=650)))
        action = stack.decide(observe(Chip(SPEC2)))
        # With nothing running the floor is one PMD at fmin — still a
        # hard floor no member may dive under.
        required = TABLE2.safe_voltage_mv(1, SPEC2.fmin_hz)
        assert action.voltage_mv == required
        assert action.raise_voltage_mv == required
        assert stack.clamps == 1

    def test_clamp_tracks_requested_clocks(self):
        # Undervolt while pinning the busy PMD at fmax: the clamp must
        # price the *requested* clock, not the current (fmin) one.
        stack = self.make_stack(
            _Fixed(Action(voltage_mv=650, pmd_freqs_hz={0: SPEC2.fmax_hz}))
        )
        action = stack.decide(
            observe(Chip(SPEC2), processes=[_FakeProcess(1, (0,))])
        )
        assert action.voltage_mv == TABLE2.safe_voltage_mv(
            1, SPEC2.fmax_hz
        )
        assert stack.clamps == 1

    def test_noop_merge_returns_none(self):
        stack = self.make_stack(Policy(), Policy())
        assert stack.decide(observe(Chip(SPEC2))) is None
        assert stack.decisions == 1

    def test_counters_use_registry_metric_names(self):
        stack = self.make_stack(Policy())
        counters = stack.decision_counters()
        assert set(counters) == {
            metric_names.POLICY_DECISIONS,
            metric_names.POLICY_CLAMPS,
            metric_names.POLICY_OVERRIDES,
        }

    def test_tick_cadence_is_fastest_member(self):
        fast = OnlineMonitoringDaemon(
            SPEC2, policy=TABLE2, monitor_period_s=0.2
        )
        slow = OnlineMonitoringDaemon(
            SPEC2, policy=TABLE2, monitor_period_s=0.8
        )
        stack = self.make_stack(slow, fast)
        assert stack.monitor_period_s == 0.2
        assert self.make_stack(BaselinePolicy()).monitor_period_s is None


class TestRegistry:
    def test_all_keys_resolve(self):
        for key in policy_keys():
            policy = resolve_policy(key, SPEC2, table=TABLE2)
            assert policy.key == key

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            get_policy_descriptor("overclock-everything")

    def test_paper_aliases_resolve_to_registry_keys(self):
        for alias, key in CONFIG_POLICY_KEYS.items():
            assert get_policy_descriptor(alias).key == key
            assert resolve_policy(alias, SPEC2, table=TABLE2).key == key
        assert rail_mode("optimal") == "safe"
        assert policy_names() == (*policy_keys(), *CONFIG_POLICY_KEYS)

    def test_show_resolves_an_alias(self, capsys):
        assert policy_main(["show", "optimal"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.split() == ["key", "daemon"]

    def test_compare_dedups_aliases_on_canonical_keys(self, capsys):
        assert policy_main(
            ["compare", "optimal", "daemon", "--duration", "300"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        policies = [line.split()[0] for line in lines[3:]]
        assert policies == ["baseline-ondemand", "daemon"]

    def test_rail_modes(self):
        assert rail_mode("baseline-ondemand") == "nominal"
        assert rail_mode("safe-vmin") == "safe"
        with pytest.raises(ConfigurationError):
            rail_mode("none")

    def test_paper_bundles_have_paper_semantics(self):
        optimal = resolve_policy("daemon", SPEC2, table=TABLE2)
        placement = resolve_policy(
            "daemon-placement", SPEC2, table=TABLE2
        )
        assert optimal.control_voltage is True
        assert placement.control_voltage is False

    def test_ed2p_derives_the_daemon_clocks_on_paper_chips(self):
        # The Fig. 12 reproduction claim: the derived per-class argmin
        # clocks coincide with the daemon's hard-coded operating points.
        policy = resolve_policy("ed2p", SPEC2, table=TABLE2)
        assert isinstance(policy, Ed2pPolicy)
        assert policy.clock_plan.cpu_freq_hz == SPEC2.fmax_hz
        assert policy.engine.cpu_freq_hz == SPEC2.fmax_hz
        baseline_daemon = OnlineMonitoringDaemon(SPEC2, policy=TABLE2)
        assert policy.engine.mem_freq_hz == baseline_daemon.engine.mem_freq_hz

    def test_describe_rows(self):
        rows = dict(describe_policy("ed2p", SPEC2))
        assert rows["class"] == "Ed2pPolicy"
        assert rows["rail mode"] == "safe"
        assert "cpu clock" in rows

    def test_powersave_resolves_to_pinned_governor(self):
        policy = resolve_policy("powersave", SPEC2)
        assert isinstance(policy, PowersavePolicy)
