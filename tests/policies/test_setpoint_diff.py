"""The actuation funnel sends only the set-points that change a clock.

:func:`~repro.policies.actuation.apply_action` leaves out a set-point
equal to the live clock, which CPPC would record no transition for. A
full per-PMD map must therefore leave the clocks and the CPPC transition
list that requesting every PMD leaves — also on a chip whose fmax is
off its frequency grid, where a request equal to the live (initial)
clock still moves it. Every PMD id and every moved or admitted core is
still checked before anything moves.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.policies.actuation import apply_action
from repro.policies.surfaces import Action
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload

PLATFORMS = ("xgene2", "xgene3", "xgene3-xl")


def _system(spec, threads=()):
    """A system that has not run; one queued CG job per thread count."""
    workload = Workload(
        jobs=tuple(
            JobSpec(job_id, "CG", nthreads, 0.0)
            for job_id, nthreads in enumerate(threads)
        ),
        duration_s=10.0,
        max_cores=spec.n_cores,
        seed=0,
    )
    return ServerSystem(Chip(spec), workload)


def _transitions(chip):
    return [
        (t.time_s, t.pmd_id, t.from_hz, t.to_hz)
        for t in chip.cppc.transitions
    ]


def _off_grid(spec):
    """``spec`` with fmax 4 Hz above its top grid step."""
    off = replace(spec, fmax_hz=spec.fmax_hz + 4)
    assert off.fmax_hz not in off.frequency_steps()
    return off


@st.composite
def _setpoint_runs(draw):
    """A chip, clocks to start from, then a full set-point map."""
    spec = get_spec(draw(st.sampled_from(PLATFORMS)))
    if draw(st.booleans()):
        spec = _off_grid(spec)
    steps = spec.frequency_steps()
    # Off-grid requests too: CPPC snaps them, maybe onto the live clock.
    request = st.sampled_from(steps) | st.integers(
        spec.fmin_hz // 2, spec.fmax_hz + spec.fmax_hz // 8
    )
    start = draw(
        st.dictionaries(st.integers(0, spec.n_pmds - 1), request)
    )
    order = draw(st.permutations(range(spec.n_pmds)))
    setpoints = {pmd: draw(request) for pmd in order}
    return spec, start, setpoints


class TestFullMapEqualsEveryRequest:
    @given(_setpoint_runs())
    @settings(max_examples=150, deadline=None)
    def test_clocks_and_transitions(self, run):
        spec, start, setpoints = run
        system = _system(spec)
        chip = system.chip
        twin = Chip(spec)
        for target in (chip, twin):
            for pmd, freq in start.items():
                target.set_pmd_frequency(pmd, freq)
        apply_action(system, Action(pmd_freqs_hz=setpoints))
        for pmd, freq in setpoints.items():
            twin.set_pmd_frequency(pmd, freq)
        assert chip.cppc.frequencies() == twin.cppc.frequencies()
        assert _transitions(chip) == _transitions(twin)

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_off_grid_fmax_request_still_moves_the_clock(self, platform):
        spec = _off_grid(get_spec(platform))
        system = _system(spec)
        apply_action(
            system,
            Action(pmd_freqs_hz={p: spec.fmax_hz for p in range(spec.n_pmds)}),
        )
        assert system.chip.cppc.transition_count() == spec.n_pmds


class TestNothingMovesOnARangeError:
    """Checked up front, whether or not the clamp looks the table up."""

    def _running(self, platform, rail_below_nominal):
        spec = get_spec(platform)
        system = _system(spec, threads=[1, 1])
        apply_action(system, Action(admit_cores=(0,)), system.processes[0])
        if rail_below_nominal:
            system.chip.set_voltage(
                system.vmin_table().safe_voltage_mv(4, spec.fmax_hz)
            )
        return system

    def _snapshot(self, system):
        chip = system.chip
        return (
            chip.state(),
            _transitions(chip),
            chip.slimpro.transition_count(),
            [(p.pid, p.cores, p.state) for p in system.processes],
        )

    @pytest.mark.parametrize("platform", PLATFORMS)
    @pytest.mark.parametrize("rail_below_nominal", [False, True])
    @pytest.mark.parametrize(
        "bad",
        ["pmd-high", "pmd-negative", "migration-core", "admission-core"],
    )
    def test_configuration_error_before_any_move(
        self, platform, rail_below_nominal, bad
    ):
        system = self._running(platform, rail_below_nominal)
        spec = system.spec
        running, queued = system.processes
        freqs = {pmd: spec.fmin_hz for pmd in range(spec.n_pmds)}
        migrations = {running.pid: (2,)}
        arriving = None
        admit = None
        if bad == "pmd-high":
            freqs[spec.n_pmds] = spec.fmax_hz
        elif bad == "pmd-negative":
            freqs[-1] = spec.fmax_hz
        elif bad == "migration-core":
            migrations = {running.pid: (spec.n_cores,)}
        else:
            arriving, admit = queued, (spec.n_cores,)
        # Below nominal the rail stays put, so the clamp prices the
        # action; at nominal it raises first, so nothing may precede
        # the checks.
        rail = None if rail_below_nominal else spec.nominal_voltage_mv
        action = Action(
            raise_voltage_mv=rail,
            migrations=migrations,
            admit_cores=admit,
            pmd_freqs_hz=freqs,
            voltage_mv=rail,
        )
        before = self._snapshot(system)
        with pytest.raises(ConfigurationError, match="out of range"):
            apply_action(system, action, arriving)
        assert self._snapshot(system) == before
        assert system.running_processes() == [running]
