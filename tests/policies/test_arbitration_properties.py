"""Property-based tests of the actuation funnel's safe-Vmin clamp.

The structural claim of the funnel: *no policy — however adversarial —
can drive the rail below the measured safe Vmin of the machine's
current state*. Single bare policies — the real governors and
deliberately reckless adversaries — are replayed through
:class:`~repro.sim.system.ServerSystem` over random workloads on both
chips; the engine's voltage audit must stay silent and the applied
rail must end at or above the table level. A second property pins
determinism: the same policy and seed must reproduce the run
bit-for-bit, the clamp count included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import VminPolicyTable
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec, xgene3_spec
from repro.policies.governors import (
    BaselinePolicy,
    OndemandPolicy,
    PerformancePolicy,
    PowersavePolicy,
)
from repro.policies.safevmin import SafeVminPolicy
from repro.policies.surfaces import Action, Policy, PolicyEvent
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload
from repro.workloads.suites import get_benchmark

SPECS = {"xgene2": xgene2_spec(), "xgene3": xgene3_spec()}
TABLES = {
    key: VminPolicyTable.from_characterization(spec)
    for key, spec in SPECS.items()
}
#: Small benchmark pool mixing both classes and both program shapes.
_POOL = ("namd", "EP", "CG", "mcf")


class _Undervolter(Policy):
    """Adversary: settles the rail far below any safe level, always."""

    def __init__(self, settle_mv: int):
        self.settle_mv = settle_mv

    def decide(self, obs):
        if obs.event is PolicyEvent.ADMIT:
            return None
        return Action(voltage_mv=self.settle_mv)


class _WeakRaiser(Policy):
    """Adversary: answers every admission with a uselessly low raise."""

    def decide(self, obs):
        if obs.event is PolicyEvent.ADMIT:
            return Action(raise_voltage_mv=705)
        return None


class _SettleOnce(Policy):
    """Adversary: settles at the idle chip's table level, then idles.

    At START the rail drops to the level of one PMD at fmin; the policy
    never acts again, so only the funnel's admission clamp covers the
    PMDs and clocks its spread arrivals add.
    """

    def __init__(self, spec, table):
        self.spec = spec
        self.vmin_table = table

    def decide(self, obs):
        if obs.event is not PolicyEvent.START:
            return None
        return Action(
            voltage_mv=self.vmin_table.safe_voltage_mv(1, self.spec.fmin_hz)
        )


class _HotClocker(Policy):
    """Adversary: pins every clock at fmax while undervolting."""

    def __init__(self, spec):
        self.spec = spec

    def decide(self, obs):
        if obs.event is PolicyEvent.ADMIT:
            return None
        return Action(
            pmd_freqs_hz={
                pmd: self.spec.fmax_hz for pmd in range(self.spec.n_pmds)
            },
            voltage_mv=660,
        )


#: Policy factories: (label, chip key -> fresh policy). Fresh instances
#: per run keep stateful policies from leaking across replays.
POLICY_FACTORIES = (
    ("noop", lambda key: Policy()),
    ("baseline", lambda key: BaselinePolicy()),
    ("ondemand-chip", lambda key: OndemandPolicy(scope="chip")),
    ("ondemand-pmd", lambda key: OndemandPolicy(scope="pmd")),
    ("performance", lambda key: PerformancePolicy()),
    ("powersave", lambda key: PowersavePolicy()),
    (
        "safe-vmin",
        lambda key: SafeVminPolicy(SPECS[key], policy=TABLES[key]),
    ),
    ("undervolt-650", lambda key: _Undervolter(650)),
    ("undervolt-720", lambda key: _Undervolter(720)),
    ("weak-raiser", lambda key: _WeakRaiser()),
    ("hot-clocker", lambda key: _HotClocker(SPECS[key])),
    ("settle-once", lambda key: _SettleOnce(SPECS[key], TABLES[key])),
)
_FACTORY_BY_LABEL = dict(POLICY_FACTORIES)


@st.composite
def policy_runs(draw):
    """(chip key, policy label, workload) for one replay."""
    chip_key = draw(st.sampled_from(tuple(SPECS)))
    label = draw(st.sampled_from([label for label, _ in POLICY_FACTORIES]))
    spec = SPECS[chip_key]
    jobs = []
    count = draw(st.integers(1, 4))
    for job_id in range(count):
        name = draw(st.sampled_from(_POOL))
        parallel = get_benchmark(name).parallel
        nthreads = draw(st.sampled_from((2, 4))) if parallel else 1
        start = draw(st.floats(0.0, 60.0).map(lambda v: round(v, 2)))
        jobs.append(JobSpec(job_id, name, nthreads, start))
    workload = Workload(
        jobs=tuple(jobs),
        duration_s=200.0,
        max_cores=spec.n_cores,
        seed=0,
    )
    return chip_key, label, workload


def replay(chip_key, label, workload):
    """Replay ``workload`` under a fresh bare policy; (result, system)."""
    system = ServerSystem(
        Chip(SPECS[chip_key]),
        workload,
        policy=_FACTORY_BY_LABEL[label](chip_key),
    )
    return system.run(), system


class TestClampSafety:
    @given(policy_runs())
    @settings(max_examples=30, deadline=None)
    def test_rail_never_below_safe_vmin(self, drawn):
        chip_key, label, workload = drawn
        result, system = replay(chip_key, label, workload)
        # The engine's own audit: the applied voltage never sat below
        # the machine's safe Vmin while anything was running.
        assert result.violations == []
        # And the final state is explicitly at or above the table level.
        state = system.chip.state()
        required = TABLES[chip_key].safe_voltage_mv(
            max(1, len(state.active_pmds)), state.max_active_frequency()
        )
        assert system.chip.voltage_mv >= required
        assert all(p.finish_s is not None for p in result.processes)

    @given(policy_runs())
    @settings(max_examples=10, deadline=None)
    def test_undervolter_alone_is_contained(self, drawn):
        chip_key, _, workload = drawn
        # The worst policy: the clamp is the only defence.
        result, system = replay(chip_key, "undervolt-650", workload)
        assert result.violations == []
        assert system.clamps > 0

    @pytest.mark.parametrize("chip_key", sorted(SPECS))
    def test_settle_once_arrivals_are_clamped(self, chip_key):
        # Spread arrivals add PMDs at fmax to an idle-level rail: only
        # the clamp on the admission itself keeps them safe.
        workload = Workload(
            jobs=(JobSpec(0, "namd", 4, 0.0), JobSpec(1, "CG", 2, 5.0)),
            duration_s=200.0,
            max_cores=SPECS[chip_key].n_cores,
            seed=0,
        )
        result, system = replay(chip_key, "settle-once", workload)
        assert result.violations == []
        assert system.clamps > 0


class TestDeterminism:
    @given(policy_runs())
    @settings(max_examples=15, deadline=None)
    def test_identical_seed_identical_run(self, drawn):
        chip_key, label, workload = drawn
        first, system_a = replay(chip_key, label, workload)
        second, system_b = replay(chip_key, label, workload)
        assert first.makespan_s == second.makespan_s
        assert first.energy_j == second.energy_j
        assert first.voltage_transitions == second.voltage_transitions
        assert first.frequency_transitions == second.frequency_transitions
        assert [p.finish_s for p in first.processes] == [
            p.finish_s for p in second.processes
        ]
        assert system_a.clamps == system_b.clamps
