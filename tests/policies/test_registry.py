"""Deterministic tests of the policy registry."""

import pytest

from repro.core.policy import VminPolicyTable
from repro.errors import ConfigurationError
from repro.platform.specs import xgene2_spec
from repro.policies.cli import policy_main
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.policies.ed2p import Ed2pPolicy
from repro.policies.governors import PowersavePolicy
from repro.policies.registry import (
    CONFIG_POLICY_KEYS,
    describe_policy,
    get_policy_descriptor,
    policy_keys,
    policy_names,
    rail_mode,
    resolve_policy,
)

SPEC2 = xgene2_spec()
TABLE2 = VminPolicyTable.from_characterization(SPEC2)


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
