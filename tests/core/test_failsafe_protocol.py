"""Focused tests for the fail-safe voltage protocol (Fig. 13).

These exercise the transitional-voltage arithmetic and the
raise-before/settle-after ordering directly, complementing the
end-to-end daemon tests. Plans reach the chip the way the daemon's do:
as an :class:`~repro.policies.surfaces.Action` through
:func:`~repro.policies.actuation.apply_action`.
"""


from repro.core.placement import PlacementEngine
from repro.platform.chip import Chip
from repro.platform.specs import xgene3_spec
from repro.policies.actuation import apply_action
from repro.policies.surfaces import Action
from repro.sim.process import SimProcess, WorkloadClass
from repro.sim.system import ServerSystem
from repro.workloads.generator import Workload
from repro.workloads.suites import get_benchmark


def idle_system(spec):
    workload = Workload(jobs=(), duration_s=10.0, max_cores=spec.n_cores,
                        seed=0)
    return ServerSystem(Chip(spec), workload)


def running(system, pid, name, cores, cls):
    proc = SimProcess(
        pid=pid,
        profile=get_benchmark(name),
        nthreads=len(cores),
        arrival_s=0.0,
    )
    proc.observed_class = cls
    proc.start(0.0, tuple(cores))
    for core in cores:
        system.chip.occupy(core, pid)
    system.processes.append(proc)
    system._by_pid[pid] = proc
    return proc


def apply_plan(engine, system, plan):
    """Actuate ``plan`` as the daemon does: one fail-safe action."""
    apply_action(system, engine.action_for(plan, system.chip.state()))


def raise_for_arrival(engine, system, nthreads):
    """The daemon's ``ADMIT`` step: the fail-safe raise, if any."""
    required = engine.arrival_raise_mv(system.chip.state(), nthreads)
    if required is not None:
        apply_action(system, Action(raise_voltage_mv=required))


def transitional_mv(engine, system, plan):
    """The raise level of ``plan``'s action from the live state."""
    return engine.action_for(plan, system.chip.state()).raise_voltage_mv


class TestTransitionalVoltage:
    def test_covers_both_old_and_new(self, policy3):
        spec = xgene3_spec()
        engine = PlacementEngine(spec, policy=policy3)
        system = idle_system(spec)
        # Old state: 8 busy PMDs at fmax.
        for pmd in range(8):
            system.chip.occupy(spec.cores_of_pmd(pmd)[0], f"p{pmd}")
        # New plan: only 2 PMDs.
        proc = SimProcess(
            pid=99,
            profile=get_benchmark("namd"),
            nthreads=4,
            arrival_s=0.0,
        )
        proc.observed_class = WorkloadClass.CPU_INTENSIVE
        plan = engine.plan([proc])
        transitional = transitional_mv(engine, system, plan)
        old_level = policy3.safe_voltage_mv(8, spec.fmax_hz)
        new_level = plan.voltage_mv
        assert transitional >= old_level
        assert transitional >= new_level

    def test_transitional_at_least_plan(self, policy3):
        spec = xgene3_spec()
        engine = PlacementEngine(spec, policy=policy3)
        system = idle_system(spec)  # idle old state
        proc = SimProcess(
            pid=1,
            profile=get_benchmark("namd"),
            nthreads=32,
            arrival_s=0.0,
        )
        proc.observed_class = WorkloadClass.CPU_INTENSIVE
        plan = engine.plan([proc])
        assert transitional_mv(engine, system, plan) >= (
            plan.voltage_mv
        )


class TestApplyOrdering:
    def test_voltage_peaks_before_settling(self, policy3):
        # Shrinking from a big configuration to a small one: the rail
        # must not drop below the big configuration's level until after
        # the clocks/migrations applied.
        spec = xgene3_spec()
        engine = PlacementEngine(spec, policy=policy3)
        system = idle_system(spec)
        procs = [
            running(
                system, pid, "namd", (2 * pid, 2 * pid + 1),
                WorkloadClass.CPU_INTENSIVE,
            )
            for pid in range(8)
        ]
        big_plan = engine.plan(procs)
        apply_plan(engine, system, big_plan)
        voltage_big = system.chip.voltage_mv
        # Now all but one finish.
        for proc in procs[1:]:
            system.chip.release_occupant(proc.pid)
            proc.finish(1.0)
        small_plan = engine.plan([procs[0]])
        apply_plan(engine, system, small_plan)
        assert system.chip.voltage_mv == small_plan.voltage_mv
        assert small_plan.voltage_mv < voltage_big
        # The transition log never dipped below the requirement of the
        # larger configuration before the smaller one was in force: the
        # first post-apply transition goes directly to the settle level.
        transitions = system.chip.slimpro.transitions
        assert transitions[-1].to_mv == small_plan.voltage_mv

    def test_raise_for_arrival_headroom(self, policy3):
        spec = xgene3_spec()
        engine = PlacementEngine(spec, policy=policy3)
        system = idle_system(spec)
        running(system, 1, "namd", (0, 1), WorkloadClass.CPU_INTENSIVE)
        plan = engine.retune(system.running_processes())
        apply_plan(engine, system, plan)
        level_before = system.chip.voltage_mv
        raise_for_arrival(engine, system, nthreads=8)
        # Headroom for up to 4 more PMDs at the CPU clock.
        assert system.chip.voltage_mv >= level_before
        assert system.chip.voltage_mv >= policy3.safe_voltage_mv(
            5, spec.fmax_hz
        )

    def test_raise_for_arrival_noop_without_voltage_control(self, policy3):
        spec = xgene3_spec()
        engine = PlacementEngine(
            spec, policy=policy3, control_voltage=False
        )
        system = idle_system(spec)
        before = system.chip.voltage_mv
        raise_for_arrival(engine, system, nthreads=8)
        assert system.chip.voltage_mv == before
