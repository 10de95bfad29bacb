"""The safe-Vmin clamp across feature combinations on xgene3-xl.

The production policies drive the rail from the table they deploy, so
they must never need the actuation funnel's clamp, whatever runs
around them: several lanes mixing silicon seeds and ambients, thermal
on and off, ED²P clocks, a power cap. :class:`ClampCheckingSystem`
checks at every refresh that the rail covers the deployed table's
level for the live state, that no lane on the chip's own silicon with
thermal off has recorded a violation, and that the clamp never bound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.platform.thermal import ThermalModel
from repro.policies.registry import resolve_policy
from repro.sim.system import ServerSystem, SimLane
from repro.vmin.model import VminModel

from tests.replay_oracle import make_policy, mixed_workloads

PLATFORM = "xgene3-xl"
SPEC = get_spec(PLATFORM)
#: Lane silicon seeds (``None``: the chip's own) and ambients in degC
#: (``None``: thermal off).
SEEDS = (None, 3, 11)
AMBIENTS = (None, 25.0, 45.0)


class ClampCheckingSystem(ServerSystem):
    """A system that checks the clamp's invariants after every refresh."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        own = VminModel.for_chip(self.chip).content_key()
        #: The lanes the table covers exactly: the chip's own silicon
        #: at the calibration temperature.
        self.covered = [
            lane
            for lane in self.lanes
            if lane.thermal is None
            and lane.vmin_model.content_key() == own
        ]
        self.checks = 0

    def _refresh(self) -> None:
        super()._refresh()
        state = self.chip.state()
        required = self.policy.vmin_table.safe_voltage_mv(
            len(state.active_pmds), state.max_active_frequency()
        )
        assert state.voltage_mv >= required, (self.now, required)
        for lane in self.covered:
            assert lane.violations == [], (self.now, lane.violations[0])
        assert self.clamps == 0, self.now
        self.checks += 1


@st.composite
def lane_mixes(draw):
    """2-4 lanes; the first on the chip's own silicon, thermal off."""
    extra = draw(
        st.lists(
            st.tuples(st.sampled_from(SEEDS), st.sampled_from(AMBIENTS)),
            min_size=1,
            max_size=3,
        )
    )
    return [(None, None), *extra]


def make_lane(seed, ambient_c):
    return SimLane(
        vmin_model=(
            None if seed is None else VminModel(SPEC, silicon_seed=seed)
        ),
        thermal=(
            None if ambient_c is None
            else ThermalModel(SPEC, ambient_c=ambient_c)
        ),
    )


class TestClampNeverBinds:
    @given(
        st.sampled_from(("daemon", "ed2p")),
        lane_mixes(),
        mixed_workloads(max_cores=SPEC.n_cores),
    )
    @settings(max_examples=20, deadline=None)
    def test_daemons_over_lanes(self, key, lanes, workload):
        system = ClampCheckingSystem(
            Chip(SPEC),
            workload,
            make_policy(key, PLATFORM),
            trace_period_s=None,
            lanes=[make_lane(*lane) for lane in lanes],
        )
        system.run()
        assert system.checks > 0
        assert system.covered

    @given(
        st.sampled_from(AMBIENTS[1:]),
        mixed_workloads(max_cores=SPEC.n_cores),
    )
    @settings(max_examples=8, deadline=None)
    def test_capped_daemon_with_thermal(self, ambient_c, workload):
        # The capper reads lane state, so it runs on one lane.
        system = ClampCheckingSystem(
            Chip(SPEC),
            workload,
            resolve_policy("daemon-powercap", SPEC),
            lanes=[make_lane(None, ambient_c)],
        )
        system.run()
        assert system.checks > 0
