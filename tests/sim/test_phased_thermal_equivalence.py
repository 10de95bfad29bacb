"""Incremental refresh ≡ full refresh with phased programs and thermal.

The incremental-refresh suite (``test_incremental_equivalence.py``)
draws only static programs and never attaches a thermal model, so two
refresh paths escape it: the phase events with the behaviour-change
scan they trigger, and the thermal clean refresh that recomputes power
and the Vmin shift on every interval. These properties replay workloads
whose first job is always a phased program, with thermal tracking on
and off, under both refresh modes and compare every observable with
``==`` on the raw floats.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.system import ServerSystem

from tests.replay_oracle import (
    POLICY_KEYS,
    FullRefreshSystem,
    mixed_workloads,
    replay,
)


def assert_modes_match(platform, workload, policy_key, thermal):
    fast = replay(ServerSystem, platform, workload, policy_key, thermal)
    full = replay(FullRefreshSystem, platform, workload, policy_key, thermal)
    assert fast == full


class TestPhasedThermalEquivalence:
    @given(
        mixed_workloads(max_cores=8, phased_first=True),
        st.sampled_from(POLICY_KEYS),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_xgene2(self, workload, policy_key, thermal):
        assert_modes_match("xgene2", workload, policy_key, thermal)

    @given(
        mixed_workloads(max_cores=64, phased_first=True),
        st.sampled_from(POLICY_KEYS),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_xgene3_xl(self, workload, policy_key, thermal):
        assert_modes_match("xgene3-xl", workload, policy_key, thermal)
