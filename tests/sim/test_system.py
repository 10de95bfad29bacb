"""Tests for the server-system simulator."""

import pytest

from repro.allocation import utilized_pmds
from repro.core.configurations import run_configuration
from repro.errors import SimulationError
from repro.perf.model import job_duration_s
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec
from repro.policies.governors import BaselinePolicy
from repro.policies.surfaces import Action, Policy, PolicyEvent
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload
from repro.workloads.suites import get_benchmark


def make_workload(jobs, duration=600.0, max_cores=8):
    return Workload(
        jobs=tuple(
            JobSpec(job_id=i, benchmark=name, nthreads=n, start_time_s=t)
            for i, (name, n, t) in enumerate(jobs)
        ),
        duration_s=duration,
        max_cores=max_cores,
        seed=0,
    )


def run_system(jobs, policy=None, chip=None, **kwargs):
    chip = chip or Chip(xgene2_spec())
    system = ServerSystem(
        chip,
        make_workload(jobs),
        policy=policy or BaselinePolicy(),
        **kwargs,
    )
    return system.run(), system


def _placement(system):
    """The chip's occupancy and every running process's cores."""
    chip = system.chip
    return (
        {core: chip.occupant_of(core) for core in chip.active_cores},
        {p.pid: p.cores for p in system.running_processes()},
    )


def _rejected_move(targets):
    """Run two jobs and, once both run, emit ``targets(a, b)`` as moves.

    Returns the pair, the rejection's message and the placement when the
    move was emitted and after it was rejected.
    """

    class Mover(BaselinePolicy):
        def decide(self, obs):
            action = super().decide(obs)
            running = obs.running_processes()
            if obs.event is PolicyEvent.STARTED and len(running) == 2:
                self.pair = running
                self.before = _placement(obs.system)
                action.migrations = targets(*running)
            return action

    policy = Mover()
    system = ServerSystem(
        Chip(xgene2_spec()),
        make_workload([("namd", 2, 0.0), ("EP", 2, 0.0)]),
        policy=policy,
    )
    with pytest.raises(SimulationError) as error:
        system.run()
    return policy.pair, str(error.value), policy.before, _placement(system)


class TestSingleJob:
    def test_runs_to_completion(self):
        result, _ = run_system([("namd", 1, 0.0)])
        proc = result.processes[0]
        assert proc.finish_s is not None
        assert result.makespan_s == proc.finish_s

    def test_duration_matches_analytic_model(self, spec2):
        # Under the baseline the job runs solo at fmax: the DES duration
        # must equal the closed-form model's.
        result, _ = run_system([("namd", 1, 0.0)])
        expected = job_duration_s(
            get_benchmark("namd"), spec2, spec2.fmax_hz
        )
        assert result.makespan_s == pytest.approx(expected, rel=1e-6)

    def test_energy_positive_and_consistent(self):
        result, _ = run_system([("EP", 2, 0.0)])
        assert result.energy_j > 0
        assert result.average_power_w == pytest.approx(
            result.energy_j / result.makespan_s
        )

    def test_ed2p(self):
        result, _ = run_system([("EP", 2, 0.0)])
        assert result.ed2p == pytest.approx(
            result.energy_j * result.makespan_s**2
        )

    def test_arrival_delay_respected(self):
        result, _ = run_system([("namd", 1, 50.0)])
        assert result.processes[0].start_s == pytest.approx(50.0)


class TestMultipleJobs:
    def test_contention_slows_memory_jobs(self, spec2):
        solo, _ = run_system([("CG", 4, 0.0)])
        crowded, _ = run_system([("CG", 4, 0.0), ("milc", 1, 0.0),
                                 ("lbm", 1, 0.0), ("mcf", 1, 0.0)])
        cg_solo = solo.processes[0]
        cg_crowded = crowded.processes[0]
        assert (
            cg_crowded.finish_s - cg_crowded.start_s
            > cg_solo.finish_s - cg_solo.start_s
        )

    def test_all_jobs_complete(self, short_workload2, chip2):
        system = ServerSystem(
            chip2, short_workload2, BaselinePolicy()
        )
        result = system.run()
        assert all(p.finish_s is not None for p in result.processes)

    def test_queueing_when_full(self):
        # 8 single-thread jobs + 1 more than capacity at t=0.
        jobs = [("namd", 1, 0.0)] * 8 + [("EP", 2, 0.0)]
        result, _ = run_system(jobs)
        ep = result.processes[-1]
        assert ep.start_s > 0.0  # had to wait for cores
        assert ep.finish_s is not None

    def test_makespan_covers_all(self, short_workload2, chip2):
        result = ServerSystem(
            chip2, short_workload2, BaselinePolicy()
        ).run()
        assert result.makespan_s == max(
            p.finish_s for p in result.processes
        )


class TestTraces:
    def test_trace_sampled_every_second(self):
        result, _ = run_system([("EP", 4, 0.0)])
        trace = result.trace
        assert trace is not None
        assert len(trace.samples) >= int(result.makespan_s)

    def test_trace_disabled(self):
        chip = Chip(xgene2_spec())
        system = ServerSystem(
            chip,
            make_workload([("EP", 2, 0.0)]),
            BaselinePolicy(),
            trace_period_s=None,
        )
        assert system.run().trace is None

    def test_trace_shows_busy_cores(self):
        result, _ = run_system([("EP", 4, 1.0)])
        busy = [s.busy_cores for s in result.trace.samples]
        assert 0 in busy  # before arrival
        assert 4 in busy  # while running


class TestPmuAccounting:
    def test_process_counters_advance(self):
        result, _ = run_system([("CG", 2, 0.0)])
        proc = result.processes[0]
        assert proc.counters.cycles > 0
        assert proc.counters.l3_accesses > 0

    def test_l3_rate_near_profile(self, spec2):
        # The per-process PMU rate is what the daemon classifies from.
        result, _ = run_system([("CG", 2, 0.0)])
        proc = result.processes[0]
        rate = 1e6 * proc.counters.l3_accesses / proc.counters.cycles
        assert rate > 3000  # CG is memory-intensive

    def test_droop_events_recorded(self):
        _, system = run_system([("CG", 8, 0.0)])
        assert sum(system.chip.pmu.droop_events.values()) > 0


class _LyingTable:
    """A deployed safe-Vmin table that calls 700 mV safe everywhere."""

    def safe_voltage_mv(self, utilized_pmds, freq_hz):
        return 700


class _RecklessPolicy(BaselinePolicy):
    """Baseline that settles the rail far below any safe Vmin at start.

    The actuation funnel clamps a policy against the table it deploys,
    so only a table that lies (as the fail-safe ablation's regression
    predictor does) can still undervolt, and the audit must see it.
    """

    def __init__(self):
        super().__init__()
        self.vmin_table = _LyingTable()

    def decide(self, obs):
        action = super().decide(obs)
        if obs.event is PolicyEvent.START:
            action.voltage_mv = 700
        return action


class TestVoltageAudit:
    def test_baseline_never_violates(self, short_workload2, chip2):
        result = ServerSystem(
            chip2, short_workload2, BaselinePolicy()
        ).run()
        assert result.violations == []

    def test_undervolted_chip_detected(self):
        result, _ = run_system(
            [("namd", 8, 0.0)], policy=_RecklessPolicy()
        )
        assert result.violations
        assert result.violations[0].depth_mv > 0

    def test_unknown_policy_rejected(self, chip2, short_workload2):
        # The audit always records: there is no fault policy to choose.
        with pytest.raises(TypeError, match="fault_policy"):
            ServerSystem(
                chip2,
                short_workload2,
                BaselinePolicy(),
                fault_policy="maybe",
            )
        with pytest.raises(TypeError, match="fault_policy"):
            run_configuration(
                "xgene2", short_workload2, "baseline", fault_policy="raise"
            )


class TestMigrationApi:
    def test_migrate_many_swaps(self):
        class Swapper(BaselinePolicy):
            def decide(self, obs):
                action = super().decide(obs)
                if obs.event is not PolicyEvent.STARTED:
                    return action
                running = obs.running_processes()
                if len(running) == 2:
                    a, b = running
                    action.migrations = {
                        a.pid: tuple(b.cores),
                        b.pid: tuple(a.cores),
                    }
                return action

        result, _ = run_system(
            [("namd", 2, 0.0), ("EP", 2, 0.0)], policy=Swapper()
        )
        assert all(p.finish_s is not None for p in result.processes)
        assert result.total_migrations == 2

    def test_migrate_to_busy_core_rejected(self):
        # One-sided move onto b's busy cores: not a swap.
        (a, b), error, before, after = _rejected_move(
            lambda a, b: {a.pid: tuple(b.cores)}
        )
        assert f"core {b.cores[0]} is taken by pid {b.pid}" in error
        assert after == before

    def test_movers_sharing_a_target_rejected(self):
        # The jobs run on cores 0, 2 and 4, 6: 1 and 3 are idle.
        (a, b), error, before, after = _rejected_move(
            lambda a, b: {a.pid: (1, 3), b.pid: (1, 3)}
        )
        assert f"core 1 is taken by pid {a.pid}" in error
        assert after == before


class _AdmissionRecorder(Policy):
    """Takes no action; records where each process was started."""

    def __init__(self):
        self.placed = {}

    def decide(self, obs):
        if obs.event is PolicyEvent.STARTED:
            self.placed[obs.process.pid] = tuple(obs.process.cores)
        return None


def admitted_cores(jobs):
    """pid -> cores each job started on under the default admission."""
    policy = _AdmissionRecorder()
    run_system(jobs, policy=policy)
    return policy.placed


class TestAdmitCores:
    def test_admit_cores_honoured(self):
        class Pinner(Policy):
            def __init__(self):
                self.placed_on = None

            def decide(self, obs):
                if obs.event is PolicyEvent.ADMIT:
                    return Action(admit_cores=(5,))
                if obs.event is PolicyEvent.STARTED:
                    self.placed_on = tuple(obs.process.cores)
                return None

        policy = Pinner()
        result, _ = run_system([("namd", 1, 0.0)], policy=policy)
        assert policy.placed_on == (5,)
        assert result.processes[0].finish_s is not None

    # With no cores from the policy, the system spreads the threads
    # across PMDs (the Linux CFS default), or queues the process.

    def test_spreads_across_pmds(self, spec2):
        placed = admitted_cores([("CG", 4, 0.0)])
        assert len(utilized_pmds(spec2, placed[0])) == 4

    def test_respects_occupancy(self):
        placed = admitted_cores([("namd", 2, 0.0), ("EP", 2, 0.0)])
        assert set(placed[1]).isdisjoint(placed[0])

    def test_queued_when_insufficient(self):
        result, _ = run_system(
            [("namd", 1, 0.0)] * 7 + [("EP", 2, 0.0)], policy=Policy()
        )
        waiting = result.processes[-1]
        first_free = min(p.finish_s for p in result.processes[:-1])
        assert waiting.start_s == first_free
        assert waiting.finish_s is not None

    def test_exactly_fits(self):
        placed = admitted_cores([("CG", 8, 0.0)])
        assert sorted(placed[0]) == list(range(8))


class TestTicks:
    def test_ticks_delivered_while_running(self):
        class Ticker(Policy):
            monitor_period_s = 1.0

            def __init__(self):
                self.ticks = 0

            def decide(self, obs):
                if obs.event is PolicyEvent.TICK:
                    self.ticks += 1
                return None

        policy = Ticker()
        result, _ = run_system([("namd", 1, 0.0)], policy=policy)
        # namd solo at fmax runs ~150 s on X-Gene 2.
        assert policy.ticks >= int(result.makespan_s) - 2

    def test_ticks_stop_after_work_done(self):
        class Ticker(Policy):
            monitor_period_s = 1.0

        result, system = run_system(
            [("EP", 8, 0.0)], policy=Ticker()
        )
        # Simulation terminates (run() returned) and time does not run
        # far past the last completion.
        assert system.now <= result.makespan_s + 2.0
