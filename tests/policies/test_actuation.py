"""Deterministic tests of the actuation funnel's safe-Vmin clamp."""

from repro.core.policy import VminPolicyTable
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec
from repro.policies.actuation import apply_action
from repro.policies.surfaces import Action, Policy
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload

SPEC2 = xgene2_spec()
TABLE2 = VminPolicyTable.from_characterization(SPEC2)


class _Holding(Policy):
    """A policy that deploys ``table`` and decides nothing."""

    def __init__(self, table):
        self.vmin_table = table


class _UnreadTable:
    """A table the clamp must not consult."""

    def safe_voltage_mv(self, utilized_pmds, freq_hz):
        raise AssertionError("a rail at nominal needs no lookup")


class _FlatTable:
    """A deployed table that calls ``level_mv`` safe everywhere."""

    def __init__(self, level_mv):
        self.level_mv = level_mv

    def safe_voltage_mv(self, utilized_pmds, freq_hz):
        return self.level_mv


def idle_system(policy=None, threads=()):
    """A system that has not run; one queued CG job per thread count."""
    workload = Workload(
        jobs=tuple(
            JobSpec(job_id, "CG", nthreads, 0.0)
            for job_id, nthreads in enumerate(threads)
        ),
        duration_s=10.0,
        max_cores=SPEC2.n_cores,
        seed=0,
    )
    return ServerSystem(Chip(SPEC2), workload, policy=policy)


class TestClamp:
    def test_undervolting_settle_is_lifted(self):
        system = idle_system()
        apply_action(system, Action(voltage_mv=650))
        # With nothing running the floor is one PMD at fmin — still a
        # hard floor no policy may dive under.
        required = TABLE2.safe_voltage_mv(1, SPEC2.fmin_hz)
        assert system.chip.voltage_mv == required
        assert system.clamps == 1

    def test_clamp_tracks_requested_clocks(self):
        # Undervolt while pinning the busy PMD at fmax: the clamp must
        # price the *requested* clock, not the current (fmin) one.
        system = idle_system(threads=[1])
        system.chip.set_all_frequencies(SPEC2.fmin_hz)
        system.admit(system.processes[0], (0,))
        apply_action(
            system, Action(voltage_mv=650, pmd_freqs_hz={0: SPEC2.fmax_hz})
        )
        assert system.chip.voltage_mv == TABLE2.safe_voltage_mv(
            1, SPEC2.fmax_hz
        )
        assert system.clamps == 1

    def test_lifted_raise_lands_before_the_clocks(self):
        system = idle_system(threads=[1])
        system.chip.set_all_frequencies(SPEC2.fmin_hz)
        system.admit(system.processes[0], (0,))
        low = TABLE2.safe_voltage_mv(1, SPEC2.fmin_hz)
        system.chip.set_voltage(low)
        rails = []
        set_pmd_frequency = system.chip.set_pmd_frequency

        def spy(pmd, freq, now):
            rails.append(system.chip.voltage_mv)
            return set_pmd_frequency(pmd, freq, now)

        system.chip.set_pmd_frequency = spy
        apply_action(system, Action(pmd_freqs_hz={0: SPEC2.fmax_hz}))
        required = TABLE2.safe_voltage_mv(1, SPEC2.fmax_hz)
        assert required > low
        assert rails == [required]
        assert system.clamps == 1

    def test_admission_is_clamped(self):
        # A spread arrival adds PMDs: the rail must cover them before
        # the process occupies its cores.
        system = idle_system(threads=[4])
        low = TABLE2.safe_voltage_mv(1, SPEC2.fmin_hz)
        system.chip.set_voltage(low)
        (arriving,) = system.processes
        apply_action(system, Action(admit_cores=(0, 2, 4, 6)), arriving)
        assert arriving.cores == (0, 2, 4, 6)
        assert system.running_processes() == [arriving]
        top = max(system.chip.cppc.frequencies())
        assert system.chip.voltage_mv == TABLE2.safe_voltage_mv(4, top)
        assert system.clamps == 1

    def test_rail_at_nominal_needs_no_lookup(self):
        system = idle_system(_Holding(_UnreadTable()))
        apply_action(system, Action(pmd_freqs_hz={0: SPEC2.fmax_hz}))
        apply_action(system, Action(voltage_mv=SPEC2.nominal_voltage_mv))
        assert system.clamps == 0

    def test_the_deployed_table_is_checked(self):
        # The clamp holds a policy to the table it drives the rail
        # from; a table that lies is the policy's own fault.
        system = idle_system(_Holding(_FlatTable(700)))
        apply_action(system, Action(voltage_mv=700))
        assert system.chip.voltage_mv == 700
        assert system.clamps == 0

    def test_tableless_policy_checked_against_characterization(self):
        system = idle_system()
        assert system.vmin_table() is system.vmin_table()
        assert system.vmin_table().rows() == TABLE2.rows()
