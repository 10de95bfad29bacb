"""Lanes of one replay ≡ one-lane replays of each lane's inputs.

A :class:`~repro.sim.system.ServerSystem` with several
:class:`~repro.sim.system.SimLane` s runs the event loop, placement,
monitor and PMU once and keeps per lane only what no policy reads: the
ground-truth silicon, the thermal model, power, energy and violations.
These properties replay random static and phased workloads under four
policies with lanes that mix silicon seeds, ambients and thermal-off
lanes, and compare every lane with ``==`` on the raw floats — every
result field, the violation list, the shared process and PMU state and
the temperature series — against a one-lane replay of its inputs.

The contract is checked when a system is built: a multi-lane system
refuses a trace and a policy that reads lane state, and an undeclared
read of :attr:`Observation.energy_j` raises.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.platform.thermal import ThermalModel
from repro.policies.governors import BaselinePolicy
from repro.policies.powercap import CappedDaemonPolicy, PowerCapPolicy
from repro.policies.surfaces import Policy
from repro.sim.system import ServerSystem, SimLane
from repro.vmin.model import VminModel
from repro.workloads.generator import JobSpec, Workload

from tests.replay_oracle import (
    POLICY_KEYS,
    FullRefreshSystem,
    make_policy,
    mixed_workloads,
    replay_observables,
)

LANE_POLICY_KEYS = POLICY_KEYS + ("ed2p",)

#: (silicon seed, ambient in degC or None for no thermal model).
lane_inputs = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from([None, 15.0, 25.0, 55.0, 85.0, 95.0]),
    ),
    min_size=2,
    max_size=4,
)


def make_lane(platform, silicon_seed, ambient_c):
    spec = get_spec(platform)
    thermal = None
    if ambient_c is not None:
        thermal = ThermalModel(spec, ambient_c=ambient_c)
    return SimLane(
        vmin_model=VminModel(spec, silicon_seed=silicon_seed),
        thermal=thermal,
    )


def replay_lanes(
    platform, workload, policy_key, inputs, system_cls=ServerSystem
):
    """One replay with a lane per input; the replayed system and lanes."""
    lanes = [make_lane(platform, *each) for each in inputs]
    system = system_cls(
        Chip(get_spec(platform)),
        workload,
        make_policy(policy_key, platform),
        trace_period_s=None,
        lanes=lanes,
    )
    system.run()
    return system, lanes


def assert_lanes_match_single_replays(platform, workload, policy_key, inputs):
    system, lanes = replay_lanes(platform, workload, policy_key, inputs)
    for each, lane in zip(inputs, lanes):
        one, (single,) = replay_lanes(platform, workload, policy_key, [each])
        assert replay_observables(system, lane) == replay_observables(
            one, single
        )


class TestLanesMatchSingleReplays:
    @given(
        mixed_workloads(max_cores=8),
        st.sampled_from(LANE_POLICY_KEYS),
        lane_inputs,
    )
    @settings(max_examples=30, deadline=None)
    def test_xgene2(self, workload, policy_key, inputs):
        assert_lanes_match_single_replays(
            "xgene2", workload, policy_key, inputs
        )

    @given(
        mixed_workloads(max_cores=64),
        st.sampled_from(LANE_POLICY_KEYS),
        lane_inputs,
    )
    @settings(max_examples=10, deadline=None)
    def test_xgene3_xl(self, workload, policy_key, inputs):
        assert_lanes_match_single_replays(
            "xgene3-xl", workload, policy_key, inputs
        )

    def test_lanes_differ_where_only_lanes_can(self):
        # A deterministic anchor: a hot lane violates and uses more
        # energy, while the calibration-temperature lanes on two dies
        # share the energy and every decision.
        workload = Workload(
            jobs=(JobSpec(0, "namd", 8, 0.0), JobSpec(1, "mcf", 2, 30.0)),
            duration_s=600.0,
            max_cores=8,
            seed=0,
        )
        inputs = [(0, None), (3, None), (0, 95.0)]
        system, lanes = replay_lanes("xgene2", workload, "daemon", inputs)
        # Against the full-refresh oracle, whose lane power is one whole
        # chip_power call at the lane's leakage multiplier: the per-lane
        # split must equal it.
        for each, lane in zip(inputs, lanes):
            one, (single,) = replay_lanes(
                "xgene2", workload, "daemon", [each], FullRefreshSystem
            )
            assert replay_observables(system, lane) == replay_observables(
                one, single
            )
        cool, other_die, hot = lanes
        assert cool.violations == []
        assert hot.violations
        assert hot.result.energy_j > cool.result.energy_j
        assert other_die.result.energy_j == cool.result.energy_j
        assert hot.result.makespan_s == cool.result.makespan_s
        assert hot.result.processes is cool.result.processes


def _two_lanes():
    return [SimLane(), SimLane()]


def _workload():
    return Workload(
        jobs=(JobSpec(0, "mcf", 1, 0.0),),
        duration_s=60.0,
        max_cores=8,
        seed=0,
    )


class _EnergyReader(Policy):
    """Reads energy without declaring it."""

    monitor_period_s = 1.0

    def decide(self, obs):
        self.seen_j = obs.energy_j
        return None


class TestLaneContract:
    def test_default_is_one_lane_on_the_chips_silicon(self):
        spec = get_spec("xgene2")
        system = ServerSystem(Chip(spec, silicon_seed=3), _workload())
        (lane,) = system.lanes
        assert lane.vmin_model.content_key() == VminModel(
            spec, silicon_seed=3
        ).content_key()
        assert lane.thermal is None
        assert system.run() is lane.result

    def test_trace_refused(self):
        spec = get_spec("xgene2")
        with pytest.raises(ConfigurationError, match="trace"):
            ServerSystem(Chip(spec), _workload(), lanes=_two_lanes())

    @pytest.mark.parametrize(
        "make",
        [
            lambda spec: PowerCapPolicy(spec, cap_w=20.0),
            lambda spec: CappedDaemonPolicy(spec, cap_w=20.0),
        ],
        ids=["power-cap", "capped-daemon"],
    )
    def test_lane_state_readers_refused(self, make):
        spec = get_spec("xgene2")
        policy = make(spec)
        assert policy.reads_lane_state
        with pytest.raises(ConfigurationError, match="lane state"):
            ServerSystem(
                Chip(spec),
                _workload(),
                policy,
                trace_period_s=None,
                lanes=_two_lanes(),
            )

    def test_undeclared_energy_read_raises(self):
        spec = get_spec("xgene2")
        system = ServerSystem(
            Chip(spec),
            _workload(),
            _EnergyReader(),
            trace_period_s=None,
            lanes=_two_lanes(),
        )
        with pytest.raises(SimulationError, match="per lane"):
            system.run()

    def test_one_lane_energy_read_is_served(self):
        spec = get_spec("xgene2")
        result = ServerSystem(Chip(spec), _workload(), _EnergyReader()).run()
        assert result.energy_j > 0

    def test_no_lanes_refused(self):
        with pytest.raises(ConfigurationError, match="at least one lane"):
            ServerSystem(Chip(get_spec("xgene2")), _workload(), lanes=[])

    @pytest.mark.parametrize("shared", ["lane", "thermal"])
    def test_shared_lane_state_refused(self, shared):
        spec = get_spec("xgene2")
        if shared == "lane":
            lane = SimLane()
            lanes = [lane, lane]
        else:
            thermal = ThermalModel(spec)
            lanes = [SimLane(thermal=thermal), SimLane(thermal=thermal)]
        with pytest.raises(ConfigurationError, match="share"):
            ServerSystem(
                Chip(spec),
                _workload(),
                BaselinePolicy(),
                trace_period_s=None,
                lanes=lanes,
            )
