"""Replay plans ≡ the per-process loops they replaced.

:class:`~repro.sim.system.ServerSystem` integrates, reschedules and
scans for behaviour changes by walking the replay plans it builds at
each full recompute. :class:`tests.replay_oracle.LoopOracleSystem` runs
the same simulator with the per-process method loops instead, and
dispatches every monitor tick where production folds quiet ones into
horizons. These properties replay random workloads — static and phased
programs, thermal tracking on and off, three policies, the 8-core and
the 64-core chip — through both and compare, with ``==`` on the raw
floats, every result field, every process's counters, class and
remaining work, every droop bin, the temperature series and the energy
meter.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.policies.governors import BaselinePolicy
from repro.sim import system as system_module
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload

from tests.replay_oracle import (
    POLICY_KEYS,
    FullRefreshSystem,
    LoopOracleSystem,
    mixed_workloads,
    replay,
)


class FullRefreshLoopOracle(LoopOracleSystem, FullRefreshSystem):
    """The per-process loops under the recompute-everything refresh."""


def assert_plans_match_loops(
    platform,
    workload,
    policy_key,
    thermal,
    plans_cls=ServerSystem,
    loops_cls=LoopOracleSystem,
):
    plans = replay(plans_cls, platform, workload, policy_key, thermal)
    loops = replay(loops_cls, platform, workload, policy_key, thermal)
    assert plans == loops


class TestReplayPlansMatchLoops:
    @given(
        mixed_workloads(max_cores=8),
        st.sampled_from(POLICY_KEYS),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_xgene2(self, workload, policy_key, thermal):
        assert_plans_match_loops("xgene2", workload, policy_key, thermal)

    @given(
        mixed_workloads(max_cores=64),
        st.sampled_from(POLICY_KEYS),
        st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_xgene3_xl(self, workload, policy_key, thermal):
        assert_plans_match_loops("xgene3-xl", workload, policy_key, thermal)

    @given(mixed_workloads(max_cores=8), st.sampled_from(POLICY_KEYS))
    @settings(max_examples=10, deadline=None)
    def test_full_refresh_mode(self, workload, policy_key):
        # The plans serve both refresh modes.
        assert_plans_match_loops(
            "xgene2",
            workload,
            policy_key,
            True,
            FullRefreshSystem,
            FullRefreshLoopOracle,
        )

    def test_phased_job_crosses_every_boundary(self):
        # A deterministic anchor for the phase path: four phases, three
        # boundaries, each rescheduled from the plan's boundary tuple.
        workload = Workload(
            jobs=(JobSpec(0, "stream-compute", 1, 0.0),),
            duration_s=300.0,
            max_cores=8,
            seed=0,
        )
        for policy_key in POLICY_KEYS:
            assert_plans_match_loops("xgene2", workload, policy_key, True)
        system = ServerSystem(
            Chip(get_spec("xgene2")), workload, BaselinePolicy()
        )
        system.run()
        assert system._event_counts["phase"] == 3


class TestPlanChecks:
    @pytest.mark.parametrize(
        "field", ["duration_s", "l3_rate_per_mcycles", "effective_activity"]
    )
    def test_negative_value_is_rejected_when_the_plan_is_built(
        self, monkeypatch, field
    ):
        # The per-interval advance/progress calls rejected negative
        # deltas; the plan rejects the values they come from.
        real = system_module.execution_state

        def negative(*args, **kwargs):
            return dataclasses.replace(
                real(*args, **kwargs), **{field: -0.5}
            )

        monkeypatch.setattr(system_module, "execution_state", negative)
        workload = Workload(
            jobs=(JobSpec(0, "mcf", 1, 0.0),),
            duration_s=60.0,
            max_cores=8,
            seed=0,
        )
        system = ServerSystem(
            Chip(get_spec("xgene2")), workload, BaselinePolicy()
        )
        with pytest.raises(SimulationError, match="replay plan"):
            system.run()
