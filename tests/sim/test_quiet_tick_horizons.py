"""Quiet-tick horizons ≡ dispatching every monitor tick.

After each dispatched monitor tick, :class:`~repro.sim.system.ServerSystem`
offers the policy the next ticks as a
:class:`~repro.policies.surfaces.TickHorizon` and advances the ones the
policy calls quiet in one step. :class:`tests.replay_oracle.LoopOracleSystem`
dispatches every tick. These properties replay random static and phased
workloads under every registered policy, on the 8-core and the 64-core
chip, with one to three lanes (thermal on and off) and with and without
a trace, through both, and compare with ``==`` on the raw floats:

* every lane's observables (result fields, violations, trace, process
  counters, classes and remaining work, droop bins, temperature series,
  energy meter);
* the policy's own state: decision counters, monitor snapshots and
  classification count, a capper's window meter and ceiling;
* the arrival, finish and phase events in dispatch order, so a finish
  that ties with a tick still pops where it did;
* every telemetry counter but the queue's own (``sim.events.scheduled``
  and ``sim.events.cancelled``) and ``sim.events.folded``.

Only the daemon family (``daemon``, ``daemon-placement``, ``ed2p``)
folds; every other key must report ``sim.events.folded == 0``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.monitoring import MonitoringDaemon
from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.platform.thermal import ThermalModel
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.policies.registry import policy_keys
from repro.sim.system import ServerSystem, SimLane
from repro.telemetry import names as metric_names
from repro.vmin.model import VminModel
from repro.workloads.generator import JobSpec, Workload

from tests.perf_like_reader import PerfLikeReader
from tests.replay_oracle import (
    LoopOracleSystem,
    _table,
    make_policy,
    mixed_workloads,
    replay_observables,
)

#: The keys whose ticks may fold.
FOLDING_KEYS = ("daemon", "daemon-placement", "ed2p")
#: Counters that count queue operations, which folding saves.
QUEUE_COUNTERS = (
    metric_names.SIM_EVENTS_SCHEDULED,
    metric_names.SIM_EVENTS_CANCELLED,
    metric_names.SIM_EVENTS_FOLDED,
)


class _Recording:
    """Records each dispatched event with the policy state it finds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Arrivals, finishes and phase events, in dispatch order.
        self.dispatched = []
        #: Dispatched tick time -> the policy state it found.
        self.ticks = {}

    def _dispatch(self, event):
        state = policy_state(self.policy)
        if event.kind == "tick":
            self.ticks[event.time_s] = state
        else:
            self.dispatched.append(
                (event.time_s, event.kind, event.payload, state)
            )
        super()._dispatch(event)


class FoldingSystem(_Recording, ServerSystem):
    """Production, recording its events."""


class DispatchingSystem(_Recording, LoopOracleSystem):
    """The per-tick oracle, recording its events."""


def policy_state(policy):
    """What a policy keeps between decisions, raw."""
    state = {"decisions": policy.decision_counters()}
    monitor = getattr(policy, "monitor", None)
    if monitor is not None:
        state["snapshots"] = dict(monitor._snapshots)
        state["classified"] = monitor.samples_taken
    meter = getattr(policy, "_meter", None)
    if meter is not None:
        state["meter"] = (meter._last_energy_j, meter._last_time_s)
        state["capper"] = (
            policy.ceiling_hz,
            policy.throttle_events,
            policy.release_events,
        )
    return state


def make_lane(platform, silicon_seed, ambient_c):
    spec = get_spec(platform)
    return SimLane(
        vmin_model=(
            None
            if silicon_seed is None
            else VminModel(spec, silicon_seed=silicon_seed)
        ),
        thermal=(
            None if ambient_c is None else ThermalModel(spec, ambient_c=ambient_c)
        ),
    )


def replay(system_cls, platform, workload, policy, lane_inputs, trace):
    """One replay: its observables, dispatched ticks and folded ticks."""
    lanes = [make_lane(platform, *each) for each in lane_inputs]
    with telemetry.session() as registry:
        system = system_cls(
            Chip(get_spec(platform)),
            workload,
            policy,
            trace_period_s=1.0 if trace else None,
            lanes=lanes,
        )
        system.run()
        counters = registry.snapshot()["counters"]
    folded = counters.get(metric_names.SIM_EVENTS_FOLDED, 0)
    observed = {
        "lanes": [replay_observables(lane) for lane in lanes],
        "policy": policy_state(policy),
        "events": system.dispatched,
        "counters": {
            name: value
            for name, value in counters.items()
            if name not in QUEUE_COUNTERS
        },
    }
    return observed, system.ticks, folded


@st.composite
def setups(draw, platform):
    """A policy key with lanes and tracing it can run with.

    Half the draws are of the folding keys. Lanes mix the chip's own
    silicon (``None``) and another die, thermal off (``None``) and two
    ambients; a single lane is traced half the time.
    """
    key = draw(st.sampled_from(FOLDING_KEYS) | st.sampled_from(policy_keys()))
    lane = st.tuples(
        st.sampled_from((None, 3)),
        st.sampled_from((None, 25.0, 85.0)),
    )
    count = draw(st.integers(1, 3))
    if make_policy(key, platform).reads_lane_state:
        count = 1
    lanes = [draw(lane) for _ in range(count)]
    trace = count == 1 and draw(st.booleans())
    return key, lanes, trace


def assert_folding_matches_dispatching(platform, workload, setup):
    """Replay both ways and compare; the folded-tick count."""
    key, lanes, trace = setup
    folding, folding_ticks, folded = replay(
        FoldingSystem,
        platform,
        workload,
        make_policy(key, platform),
        lanes,
        trace,
    )
    dispatching, dispatching_ticks, unfolded = replay(
        DispatchingSystem,
        platform,
        workload,
        make_policy(key, platform),
        lanes,
        trace,
    )
    assert unfolded == 0
    assert folding == dispatching
    # Each tick production still dispatches finds the state the
    # per-tick replay has there.
    assert len(folding_ticks) + folded == len(dispatching_ticks)
    for time_s, state in folding_ticks.items():
        assert dispatching_ticks[time_s] == state, time_s
    if key not in FOLDING_KEYS:
        assert folded == 0
    return folded


#: A workload on which ``(freq * dt) * n`` and ``freq * (dt * n)`` give
#: different counters inside a horizon: with the daemon's round clocks
#: and near-constant tick intervals the two agree on most workloads.
SENSITIVE = Workload(
    jobs=(JobSpec(0, "EP", 6, 32.9),),
    duration_s=300.0,
    max_cores=8,
    seed=0,
)


class TestHorizonsMatchDispatchedTicks:
    @given(mixed_workloads(max_cores=8), setups("xgene2"))
    @example(SENSITIVE, ("daemon", [(None, None)], False))
    @settings(max_examples=40, deadline=None)
    def test_xgene2(self, workload, setup):
        assert_folding_matches_dispatching("xgene2", workload, setup)

    @given(mixed_workloads(max_cores=64), setups("xgene3-xl"))
    @settings(max_examples=12, deadline=None)
    def test_xgene3_xl(self, workload, setup):
        assert_folding_matches_dispatching("xgene3-xl", workload, setup)

    def test_only_the_daemon_family_folds(self):
        # Long static jobs leave long quiet stretches: most ticks of a
        # folding policy fold, and every other policy folds none.
        workload = Workload(
            jobs=(
                JobSpec(0, "mcf", 2, 0.0),
                JobSpec(1, "namd", 3, 1.0),
                JobSpec(2, "stream-compute", 1, 40.0),
            ),
            duration_s=300.0,
            max_cores=8,
            seed=0,
        )
        for key in policy_keys():
            for ambient_c in (None, 85.0):
                folded = assert_folding_matches_dispatching(
                    "xgene2", workload, (key, [(None, ambient_c)], True)
                )
                assert (folded > 100) == (key in FOLDING_KEYS), key

    def test_noisy_reads_never_fold(self):
        workload = Workload(
            jobs=(JobSpec(0, "mcf", 1, 0.0),),
            duration_s=300.0,
            max_cores=8,
            seed=0,
        )
        spec = get_spec("xgene2")

        def noisy():
            return OnlineMonitoringDaemon(
                spec,
                policy=_table("xgene2"),
                monitor=MonitoringDaemon(reader=PerfLikeReader(0.03, seed=1)),
            )

        folding, _, folded = replay(
            FoldingSystem, "xgene2", workload, noisy(), [(None, None)], True
        )
        dispatching, _, _ = replay(
            DispatchingSystem, "xgene2", workload, noisy(), [(None, None)], True
        )
        assert folded == 0
        assert folding == dispatching
