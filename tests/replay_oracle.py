"""Per-process simulator loops: the reference for replay plans.

:class:`repro.sim.system.ServerSystem` builds one
:class:`~repro.sim.system.ReplayPlan` per running process at every full
recompute, and its per-event loops walk the plans with flat arithmetic.
:class:`LoopOracleSystem` keeps the loops those plans replaced, which
advance every running process one call at a time on every event. The
per-process steps are the helpers of this module, and nothing in
``src/`` calls them:

* fluid integration through :func:`advance_process_counters` and
  :func:`progress`, reading each process's clock from a fresh chip
  snapshot;
* completion and phase rescheduling through :func:`next_phase_boundary`;
* the behaviour-change scan over every running process;
* every monitor tick dispatched on its own: it never folds quiet ticks
  into a horizon.

It also checks, at every refresh, the invariant the simulator's running
list keeps without rebuilding it: ``_running`` is exactly the running
processes, in workload order.

:class:`FullRefreshSystem` is the reference for the incremental
refresh: the original flow, which recomputes the entire system state
after every event and dispatches every tick.

The tests replay one workload through both and compare every register;
:func:`mixed_workloads`, :func:`replay`, :func:`observables` and
:func:`replay_observables` are the shared pieces of those replays.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

from hypothesis import strategies as st

from repro.core.policy import VminPolicyTable
from repro.errors import SimulationError
from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.platform.thermal import ThermalModel
from repro.policies.ed2p import Ed2pClockPlan, Ed2pPolicy, ed2p_clock_plan
from repro.policies.registry import resolve_policy
from repro.policies.surfaces import Policy
from repro.sim.process import ProcessCounters, SimProcess
from repro.sim.system import REMAINING_EPS, ServerSystem, SimLane
from repro.workloads.generator import JobSpec, Workload
from repro.workloads.phases import phase_boundaries
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.suites import evaluation_pool

STATIC_PROGRAMS = [p.name for p in evaluation_pool()]
PHASED_PROGRAMS = [
    "stream-compute", "setup-then-crunch", "compute-then-writeback"
]
POLICY_KEYS = ("baseline", "safe-vmin", "daemon")


def advance_process_counters(
    counters: ProcessCounters, cycles: float, l3_accesses: float
) -> None:
    """Accumulate one interval of a process's PMU activity."""
    if cycles < 0 or l3_accesses < 0:
        raise SimulationError("counter deltas must be non-negative")
    counters.cycles += cycles
    counters.l3_accesses += l3_accesses


def progress(process: SimProcess, fraction: float) -> None:
    """Consume a fraction of a process's remaining work."""
    if fraction < 0:
        raise SimulationError("progress fraction must be non-negative")
    process.remaining_fraction = max(
        0.0, process.remaining_fraction - fraction
    )


def next_phase_boundary(process: SimProcess) -> Optional[float]:
    """Next done-fraction where a process's behaviour changes, if any."""
    for boundary in phase_boundaries(process.profile):
        if boundary > process.done_fraction + 1e-9:
            return boundary
    return None


class _NoMemo(dict):
    """A memo that never keeps an entry."""

    def __setitem__(self, key, value) -> None:
        pass


class FullRefreshSystem(ServerSystem):
    """A :class:`ServerSystem` that recomputes everything after every event.

    No incremental refresh, execution-state cache, kept replay plan,
    bandwidth-demand memo, reschedule elision or quiet-tick horizon, and
    each lane's power is one whole ``chip_power`` evaluation at its
    leakage multiplier: the original hot path, the ground truth the
    incremental one must equal bit for bit. Every full recompute builds
    every plan from inputs computed afresh. Both dispatch and audit
    every event on its own, same-instant events included.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._elide = False
        self._exec_cache = _NoMemo()
        self._plan_of = _NoMemo()
        self._demands = _NoMemo()

    def _fold_quiet_ticks(self) -> None:
        pass

    def _refresh(self) -> None:
        self._refreshes_full += 1
        self._recompute_all()

    def _recompute_power(self, state) -> None:
        for lane in self.lanes:
            multiplier = 1.0
            if lane.thermal is not None:
                multiplier = lane.thermal.leakage_multiplier()
            lane.power_w = self.power_model.chip_power(
                state,
                self._activity_map,
                self._bw_util,
                leakage_multiplier=multiplier,
            ).total_w


class LoopOracleSystem(ServerSystem):
    """A :class:`ServerSystem` whose per-event loops skip the plans."""

    def _fold_quiet_ticks(self) -> None:
        pass

    def _refresh(self) -> None:
        # Admission inserts and completion removes; nothing else
        # touches the list, so it must always match a rebuild.
        assert self._running == [p for p in self.processes if p.is_running]
        super()._refresh()

    def _recompute_all(self) -> None:
        super()._recompute_all()
        # Progress does not move inside a recompute, so these are the
        # behaviours the recompute itself evaluated.
        self._loop_behaviours: Dict[int, BenchmarkProfile] = {
            p.pid: p.current_profile() for p in self.running_processes()
        }

    def _behaviour_changed(self) -> bool:
        behaviours = self._loop_behaviours
        for process in self.running_processes():
            if process.current_profile() is not behaviours[process.pid]:
                return True
        return False

    def _integrate_to(self, time_s: float) -> None:
        dt = time_s - self.now
        if dt <= 0:
            self._sample_trace_until(time_s)
            return
        proc_states = self._proc_states
        for process in self.running_processes():
            exec_state = proc_states[process.pid]
            freq = self.process_frequency_hz(process)
            cycles = freq * dt * process.nthreads
            accesses = (
                exec_state.l3_rate_per_mcycles * freq * dt / 1e6
            ) * process.nthreads
            advance_process_counters(process.counters, cycles, accesses)
            progress(process, dt / exec_state.duration_s)
        for lane in self.lanes:
            lane.meter.accumulate(lane.power_w, dt)
            if lane.thermal is not None:
                lane.thermal.step(lane.power_w, dt)
                lane.temperature_series.append(
                    (time_s, lane.thermal.temperature_c)
                )
        self._sample_trace_until(time_s)

    def _reschedule_completions(self) -> None:
        now = self.now
        elide = self._elide
        for process in self.running_processes():
            exec_state = self._proc_states[process.pid]
            remaining_s = max(
                0.0, process.remaining_fraction * exec_state.duration_s
            )
            if process.remaining_fraction <= REMAINING_EPS:
                remaining_s = 0.0
            time_s = now + remaining_s
            old = self._finish_events.get(process.pid)
            if (
                elide
                and old is not None
                and old.time_s == time_s
                and time_s > now
            ):
                self._reschedules_elided += 1
            else:
                if old is not None:
                    self.events.cancel(old)
                self._finish_events[process.pid] = self.events.schedule(
                    time_s, "finish", process.pid
                )
            self._reschedule_phase_of(process, exec_state.duration_s)

    def _reschedule_phase_of(self, process, duration_s: float) -> None:
        old = self._phase_events.get(process.pid)
        boundary = next_phase_boundary(process)
        if boundary is None:
            if old is not None:
                del self._phase_events[process.pid]
                self.events.cancel(old)
            return
        eta_s = (boundary - process.done_fraction) * duration_s
        time_s = self.now + max(0.0, eta_s)
        if (
            self._elide
            and old is not None
            and old.time_s == time_s
            and time_s > self.now
        ):
            self._reschedules_elided += 1
            return
        if old is not None:
            self.events.cancel(old)
        self._phase_events[process.pid] = self.events.schedule(
            time_s, "phase", process.pid
        )


def observables(result):
    """Every field of a run, in raw-float comparable form."""
    trace = None
    if result.trace is not None:
        trace = [
            (
                s.time_s,
                s.power_w,
                s.busy_cores,
                s.running_processes,
                s.cpu_intensive,
                s.memory_intensive,
                s.voltage_mv,
                s.mean_active_freq_hz,
            )
            for s in result.trace.samples
        ]
    return {
        "makespan_s": result.makespan_s,
        "energy_j": result.energy_j,
        "voltage_transitions": result.voltage_transitions,
        "frequency_transitions": result.frequency_transitions,
        "violations": [
            (v.time_s, v.voltage_mv, v.required_mv)
            for v in result.violations
        ],
        "processes": [
            (p.pid, p.start_s, p.finish_s, p.migrations, tuple(p.cores))
            for p in result.processes
        ],
        "trace": trace,
    }


def replay_observables(lane: SimLane) -> dict:
    """Every observable of one lane of a finished replay, raw.

    The result fields and trace the incremental-refresh suite compares,
    plus each process's PMU counters, class and remaining work, the
    lane's temperature series and its energy meter.
    """
    result = lane.result
    return {
        **observables(result),
        "process_state": [
            (
                p.counters.cycles,
                p.counters.l3_accesses,
                p.observed_class,
                p.remaining_fraction,
            )
            for p in result.processes
        ],
        "temperature_series": list(lane.temperature_series),
        "meter": lane.meter.energy_j,
    }


@lru_cache(maxsize=None)
def _table(platform: str) -> VminPolicyTable:
    return VminPolicyTable.from_characterization(get_spec(platform))


@lru_cache(maxsize=None)
def _clock_plan(platform: str) -> Ed2pClockPlan:
    return ed2p_clock_plan(get_spec(platform))


def make_policy(key: str, platform: str) -> Policy:
    """A fresh policy of any registered key or paper alias.

    Every policy of one platform shares one safe-Vmin table, and
    ``ed2p`` one clock plan.
    """
    spec = get_spec(platform)
    if key == "ed2p":
        return Ed2pPolicy(
            spec, policy=_table(platform), clock_plan=_clock_plan(platform)
        )
    return resolve_policy(key, spec, table=_table(platform))


@st.composite
def mixed_workloads(draw, max_cores: int, phased_first: bool = False):
    """Random static and phased jobs that fit the chip at issue time.

    ``phased_first`` makes job 0 a phased program, so every workload
    crosses phase boundaries.
    """
    jobs = []
    # Odd thread counts too: scaling by a power of two is exact, so
    # only they tell ``(freq * dt) * n`` from ``freq * (dt * n)``.
    # Replicated programs run one copy per thread.
    threads = (1, 2, 3, 4, 6) if max_cores <= 8 else (1, 2, 3, 4, 6, 8, 12)
    phased = st.sampled_from(PHASED_PROGRAMS)
    anything = phased | st.sampled_from(STATIC_PROGRAMS)
    for job_id in range(draw(st.integers(1, 6))):
        name = draw(phased if phased_first and job_id == 0 else anything)
        nthreads = draw(st.sampled_from(threads))
        start = draw(st.floats(0.0, 120.0).map(lambda v: round(v, 2)))
        jobs.append(JobSpec(job_id, name, nthreads, start))
    return Workload(
        jobs=tuple(jobs), duration_s=300.0, max_cores=max_cores, seed=0
    )


def replay(
    system_cls: type,
    platform: str,
    workload: Workload,
    policy_key: str,
    thermal: bool,
) -> dict:
    """Replay ``workload`` through ``system_cls``; its observables."""
    spec = get_spec(platform)
    lane = SimLane(thermal=ThermalModel(spec) if thermal else None)
    system = system_cls(
        Chip(spec),
        workload,
        make_policy(policy_key, platform),
        lanes=[lane],
    )
    system.run()
    return replay_observables(lane)
