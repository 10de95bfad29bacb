"""The server-system simulator: Linux-like process lifecycle on a chip.

:class:`ServerSystem` replays a generated workload (Section VI.B) on a
:class:`~repro.platform.chip.Chip` under a pluggable
:class:`~repro.policies.surfaces.Policy` — the Baseline governor, the
Safe-Vmin trim, or the paper's monitoring daemon. The simulator itself
contains no policy logic: at each control event it builds an
:class:`~repro.policies.surfaces.Observation`, asks the policy to
``decide``, and actuates the returned
:class:`~repro.policies.surfaces.Action` through the one sanctioned
funnel (:func:`repro.policies.actuation.apply_action`), which also
places every arriving process and clamps the rail to the safe-Vmin
table. The model is fluid: between events every running process
advances at a rate set by its profile, its clock, its PMD sharing and
the chip-wide memory contention; power is constant on each interval
and integrates into energy.

The simulator also audits electrical safety: after every state change it
compares the rail voltage against the ground-truth safe Vmin of the new
configuration and records every undervolting violation. The paper's
fail-safe daemon never violates; error-prone predictive policies do,
which is what the fail-safe ablation measures.

The hot path is *incremental*: every model evaluation in the refresh
(contention, execution states, activity map, power, safe-Vmin audit) is
a pure function of inputs tracked by cheap version counters — core
occupancy, per-PMD clocks, the rail voltage and each process's active
behaviour profile. A refresh whose inputs did not change reuses the
cached results, which are bit-identical to a recomputation; only the
finish/phase times (which depend on the advancing clock) are recomputed,
and their cancel+schedule pair is elided when the recomputed time equals
the scheduled one. The recompute-everything flow survives as a test
oracle (``tests/replay_oracle.py::FullRefreshSystem``); the equivalence
property suites assert both produce identical results.

Every full recompute also holds one :class:`ReplayPlan` per running
process: the constants the per-event loops (fluid integration,
completion rescheduling, the behaviour-change scan) need until the next
full recompute, so those loops do flat float arithmetic instead of
per-process method calls. Contention couples every process, so each
full recompute takes every plan's inputs afresh — the slowest clock
from the snapshot's per-PMD clocks, the PMD sharing from the chip's
busy counts, the behaviour and the contention factor — but rebuilds
only the plans whose inputs changed; the others, most of them, are
kept. Bandwidth demands and execution states are memoized per
behaviour identity, and the audit's safe level comes from
:meth:`~repro.vmin.model.VminModel.safe_vmin_for_state`, which keeps
its base term per (utilized PMDs, top clock).

Most events are monitor ticks, and most ticks change nothing. After
each dispatched tick the policy is offered the next ticks as one
:class:`~repro.policies.surfaces.TickHorizon`, cut before any arrival,
finish or phase event (:meth:`ServerSystem._tick_horizon`). Its arrays
are built when the policy first reads them, so an offer refused from
the processes alone (a process not yet classified) costs none. The
ticks :meth:`~repro.policies.surfaces.Policy.quiet_ticks` calls quiet
are advanced together (:meth:`ServerSystem._commit_ticks`). Their running
sums add along the tick axis left to right, as ``+=`` does, so every
value equals what dispatching each tick leaves; the loop oracle
``tests/replay_oracle.py::LoopOracleSystem`` dispatches every tick and
the property suites assert the two agree.

A system replays one decision stream for one or more lanes
(:class:`SimLane`). A lane holds the state no policy reads — the
ground-truth Vmin model, the optional thermal model, the power level
and energy meter, and the violations — so lanes that differ only there
(other dies, other ambients) share one event loop, placement and
monitor, and each ends with the result a one-lane replay of its inputs
returns.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..allocation import Allocation, pick_free_cores
from ..errors import ConfigurationError, SimulationError
from ..perf.contention import bandwidth_utilization, contention_factor
from ..telemetry import names as metric_names
from ..perf.model import ExecutionState, bandwidth_demand_gbs, execution_state
from ..platform.chip import Chip, ChipState
from ..platform.thermal import ThermalModel
from ..policies.actuation import apply_action
from ..policies.surfaces import (
    Action,
    Observation,
    Policy,
    PolicyEvent,
    TickHorizon,
)
from ..power.energy import EnergyMeter, ed2p
from ..power.model import PowerBreakdown, PowerModel
from ..vmin.model import VminModel
from ..workloads.generator import Workload
from ..workloads.phases import phase_boundaries, resolve_benchmark
from ..workloads.profiles import BenchmarkProfile
from .engine import Event, EventQueue, SimClock
from .process import ProcessCounters, SimProcess, WorkloadClass
from .tracing import TimelineTrace, TraceSample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.policy import VminPolicyTable

#: Remaining-work fractions below this are "done" (float guard).
REMAINING_EPS = 1e-9

#: Bound on the keyed execution-state cache; cleared wholesale when
#: exceeded (distinct (behaviour identity, freq, nthreads, sharing,
#: contention) operating points seen over one run).
EXEC_STATE_CACHE_MAX = 4096

#: Most monitor ticks one :class:`TickHorizon` offers. A longer quiet
#: stretch takes several horizons, so the arrays stay small.
HORIZON_MAX_TICKS = 256


@dataclass(frozen=True, slots=True)
class ViolationRecord:
    """One interval where the rail sat below the ground-truth safe Vmin."""

    time_s: float
    voltage_mv: int
    required_mv: float


@dataclass(eq=False, slots=True)
class ReplayPlan:
    """What the per-event loops need of one running process.

    Built at a full recompute from the chip snapshot and the process's
    execution state, all of which stay fixed until the next full
    recompute: occupancy, clocks and active behaviours are exactly what
    forces one. A later full recompute keeps the plan while the inputs
    it was built from — the slowest clock, the behaviour, the PMD
    sharing and the contention factor (the thread count never changes)
    — are unchanged. The loops evaluate the same float expressions, in
    the same order, as the per-process steps they replace, which the
    test oracle ``tests/replay_oracle.py::LoopOracleSystem`` keeps, so
    the results are bit-identical.
    """

    process: SimProcess
    counters: ProcessCounters
    #: Slowest clock among the process's cores, Hz.
    freq: int
    #: ``l3_rate_per_mcycles * freq``: L3 accesses per second times 1e6.
    l3_rate_freq: float
    nthreads: int
    duration_s: float
    #: Done-fraction phase boundaries; empty for static programs.
    boundaries: Tuple[float, ...]
    #: The behaviour profile active when the plan was built.
    behaviour: BenchmarkProfile
    #: Whether another thread shared a PMD of the process.
    shares_pmd: bool
    #: The chip-wide contention factor the plan was built under.
    contention: float
    #: The execution state the plan was built from.
    exec_state: ExecutionState


@dataclass(slots=True)
class SystemResult:
    """Outcome of one full workload replay (one Tables III/IV column)."""

    makespan_s: float
    energy_j: float
    trace: Optional[TimelineTrace]
    processes: List[SimProcess]
    violations: List[ViolationRecord]
    voltage_transitions: int
    frequency_transitions: int

    @property
    def average_power_w(self) -> float:
        """Mean power over the run."""
        if self.makespan_s <= 0:
            return 0.0
        return self.energy_j / self.makespan_s

    @property
    def ed2p(self) -> float:
        """Energy-delay-squared product of the whole workload."""
        return ed2p(self.energy_j, self.makespan_s)

    @property
    def total_migrations(self) -> int:
        """Process migrations performed across the run."""
        return sum(p.migrations for p in self.processes)


@dataclass(eq=False, slots=True)
class SimLane:
    """One lane of a replay: the state no policy reads.

    Construct a lane with its inputs, hand it to one
    :class:`ServerSystem` and read its outputs after the run. Lanes of
    one system share every decision; each integrates its own power into
    its own energy and temperature and audits the rail against its own
    silicon, so its :attr:`result` equals that of a one-lane replay of
    the same inputs.
    """

    #: Ground-truth silicon the safety audit checks the rail against;
    #: ``None`` means the chip's own (:meth:`VminModel.for_chip`).
    vmin_model: Optional[VminModel] = None
    #: Junction-temperature tracker; ``None`` means the calibration
    #: temperature everywhere (the paper's reporting condition).
    thermal: Optional[ThermalModel] = None
    meter: EnergyMeter = field(default_factory=EnergyMeter, init=False)
    #: (time, degC) samples when the thermal model is enabled.
    temperature_series: List[Tuple[float, float]] = field(
        default_factory=list, init=False
    )
    violations: List[ViolationRecord] = field(
        default_factory=list, init=False
    )
    #: Chip power on the current interval, W.
    power_w: float = field(default=0.0, init=False)
    #: Thermal-free safe level; valid until occupancy, clocks or
    #: behaviours change (it does not depend on the rail voltage).
    required_base: float = field(default=0.0, init=False)
    #: Set by :meth:`ServerSystem.run`.
    result: Optional[SystemResult] = field(default=None, init=False)


class ServerSystem:
    """Replays one workload on one chip under one control policy.

    ``lanes`` defaults to one lane on the chip's own silicon with no
    thermal model. A system with several lanes refuses, with
    :class:`~repro.errors.ConfigurationError`, what the lanes cannot
    share: a timeline trace (its power is per lane) and a policy that
    declares :attr:`Policy.reads_lane_state` (it would decide on one
    lane's state for all).
    """

    def __init__(
        self,
        chip: Chip,
        workload: Workload,
        policy: Optional[Policy] = None,
        trace_period_s: Optional[float] = 1.0,
        lanes: Optional[Sequence[SimLane]] = None,
    ):
        self.chip = chip
        self.spec = chip.spec
        self.workload = workload
        self.policy = policy or Policy()
        #: Whether the policy wants the post-actuation hook; detected
        #: once so ordinary policies pay nothing per dispatch.
        self._policy_hooked = (
            type(self.policy).on_applied is not Policy.on_applied
        )
        #: Whether quiet monitor ticks are offered to the policy as
        #: horizons (:meth:`_fold_quiet_ticks`): it must answer
        #: :meth:`Policy.quiet_ticks` and want no post-actuation hook.
        self._folds_ticks = bool(self.policy.monitor_period_s) and (
            type(self.policy).quiet_ticks is not Policy.quiet_ticks
            and not self._policy_hooked
        )
        #: The table the actuation funnel clamps the rail against; see
        #: :meth:`vmin_table`.
        self._vmin_table: Optional[VminPolicyTable] = self.policy.vmin_table
        #: Rail lifts the funnel's safe-Vmin clamp made (``policy.clamps``).
        self.clamps = 0
        self.power_model = PowerModel(chip.spec)
        self.lanes: Tuple[SimLane, ...] = self._check_lanes(
            lanes if lanes is not None else [SimLane()],
            trace_period_s,
        )
        #: The lanes whose power moves with temperature between refreshes.
        self._thermal_lanes = tuple(
            lane for lane in self.lanes if lane.thermal is not None
        )
        #: The lane-independent power breakdown, leakage unscaled; fixed
        #: until the next full recompute.
        self._power = PowerBreakdown(0.0, 0.0, 0.0, 0.0)
        #: Skip the cancel+schedule pair of an unchanged future event.
        self._elide = True
        self.clock = SimClock()
        self.events = EventQueue()
        self.trace = (
            TimelineTrace(trace_period_s) if trace_period_s else None
        )
        self._next_sample_s = 0.0
        self.processes: List[SimProcess] = [
            SimProcess(
                pid=job.job_id,
                profile=resolve_benchmark(job.benchmark),
                nthreads=job.nthreads,
                arrival_s=job.start_time_s,
            )
            for job in workload.jobs_sorted()
        ]
        self._by_pid: Dict[int, SimProcess] = {
            p.pid: p for p in self.processes
        }
        self.queue: Deque[SimProcess] = deque()
        self._finish_events: Dict[int, Event] = {}
        self._phase_events: Dict[int, Event] = {}
        #: The pending monitor tick, if any.
        self._tick: Optional[Event] = None
        #: pid -> execution state at the last full recompute: what the
        #: replay plans are built from, kept for the per-process loop
        #: oracle the tests replay against them.
        self._proc_states: Dict[int, ExecutionState] = {}
        #: pid -> the running process's current plan, kept by the next
        #: full recompute while its inputs are unchanged; dropped when
        #: the process finishes.
        self._plan_of: Dict[int, ReplayPlan] = {}
        self._pending_arrivals = 0
        #: Events dispatched per kind + policy dispatch invocations;
        #: preallocated Counter/int slots, flushed into telemetry at
        #: end of run.
        self._event_counts: Counter[str] = Counter()
        self._controller_calls = 0
        # -- incremental-refresh state -----------------------------------
        #: Running processes in ``self.processes`` order, maintained
        #: eagerly at the two membership mutation points (admit/finish).
        self._running: List[SimProcess] = []
        self._order: Dict[int, int] = {
            p.pid: i for i, p in enumerate(self.processes)
        }
        #: Inputs of the last full refresh, reused verbatim while the
        #: version counters below say nothing relevant changed.
        self._state: Optional[ChipState] = None
        #: One replay plan per running process, in ``_running`` order,
        #: and the subset whose programs have phase boundaries.
        self._plans: List[ReplayPlan] = []
        self._phased_plans: List[ReplayPlan] = []
        self._activity_map: Dict[int, float] = {}
        self._bw_util = 0.0
        self._occ_version = -1
        self._freq_version = -1
        self._volt_version = -1
        #: (id(behaviour), freq, nthreads, shares_pmd, contention) ->
        #: execution state, and (id(behaviour), freq) -> one thread's
        #: bandwidth demand. Every behaviour is a profile of one of
        #: ``self.processes``, alive as long as the system, so its id()
        #: names it for the caches' lifetime and no key hashes a
        #: profile's fields.
        self._exec_cache: Dict[
            Tuple[int, int, int, bool, float], ExecutionState
        ] = {}
        self._demands: Dict[Tuple[int, int], float] = {}
        self._refreshes_full = 0
        self._refreshes_incremental = 0
        self._reschedules_elided = 0
        #: Monitor ticks advanced inside horizons (``sim.events.folded``).
        self._ticks_folded = 0

    def _check_lanes(
        self, lanes: Sequence[SimLane], trace_period_s: Optional[float]
    ) -> Tuple[SimLane, ...]:
        """Resolve default silicon and enforce the multi-lane contract."""
        lanes = tuple(lanes)
        if not lanes:
            raise ConfigurationError("a system needs at least one lane")
        thermals = [lane.thermal for lane in lanes if lane.thermal is not None]
        owned = [*lanes, *thermals]
        if len(set(map(id, owned))) < len(owned):
            raise ConfigurationError(
                "lanes must not share a SimLane or a ThermalModel"
            )
        if len(lanes) > 1:
            if trace_period_s is not None:
                raise ConfigurationError(
                    "a multi-lane system cannot trace: a trace sample's "
                    "power is per lane (pass trace_period_s=None)"
                )
            if self.policy.reads_lane_state:
                raise ConfigurationError(
                    f"policy {type(self.policy).__name__} reads lane "
                    "state (Observation.energy_j); a multi-lane system "
                    "cannot serve it"
                )
        own: Optional[VminModel] = None
        for lane in lanes:
            if lane.vmin_model is None:
                if own is None:
                    own = VminModel.for_chip(self.chip)
                lane.vmin_model = own
        return lanes

    # -- public API used by policies and the actuation layer ---------------------

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self.clock.now

    def running_processes(self) -> List[SimProcess]:
        """Processes currently occupying cores."""
        return list(self._running)

    def migrate_many(
        self, moves: Dict[SimProcess, Tuple[int, ...]]
    ) -> None:
        """Apply several migrations atomically (two-phase).

        Every target is checked before any core is released: a target
        core may be held only by a mover, and no two movers may claim
        it. So swaps are legal, and a rejected batch raises
        :class:`~repro.errors.SimulationError` with the occupancy
        untouched.
        """
        movers = {process.pid for process in moves}
        claimed: Dict[int, int] = {}
        for process, cores in moves.items():
            if not process.is_running:
                raise SimulationError(
                    f"pid {process.pid}: cannot migrate a non-running process"
                )
            for core in cores:
                holder = self.chip.occupant_of(core)
                if holder is None or holder in movers:
                    holder = claimed.get(core)
                if holder is not None:
                    raise SimulationError(
                        f"pid {process.pid}: core {core} is taken by pid "
                        f"{holder}; migration invalid"
                    )
                claimed[core] = process.pid
        for process in moves:
            self.chip.release_occupant(process.pid)
        for process, cores in moves.items():
            for core in cores:
                self.chip.occupy(core, process.pid)
            process.migrate(tuple(cores))

    def admit(self, process: SimProcess, cores: Tuple[int, ...]) -> None:
        """Start an arriving process on ``cores``."""
        process.start(self.now, cores)
        for core in cores:
            self.chip.occupy(core, process.pid)
        self._running_insert(process)

    def vmin_table(self) -> VminPolicyTable:
        """The safe-Vmin table the actuation funnel clamps against.

        The policy's own (:attr:`Policy.vmin_table`), else the chip's
        registered characterization, built on first use.
        """
        table = self._vmin_table
        if table is None:
            # repro.core runs systems (core.configurations), so the
            # simulator imports it only when it needs the table.
            from ..core.policy import VminPolicyTable

            table = VminPolicyTable.from_characterization(self.spec)
            self._vmin_table = table
        return table

    def process_frequency_hz(self, process: SimProcess) -> int:
        """Slowest clock among the PMDs a running process occupies."""
        if not process.cores:
            return self.spec.fmax_hz
        state = self.chip.state()
        return min(state.frequency_of_core(c) for c in process.cores)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SystemResult:
        """Replay the whole workload; the first lane's result.

        Every lane's result is its :attr:`SimLane.result`.
        """
        for process in self.processes:
            self.events.schedule(process.arrival_s, "arrival", process.pid)
        self._pending_arrivals = len(self.processes)
        self._dispatch_policy(PolicyEvent.START)
        if self.policy.monitor_period_s:
            self._tick = self.events.schedule(
                self.policy.monitor_period_s, "tick"
            )
        self._refresh()
        events = self.events
        folds = self._folds_ticks
        while events:
            event = events.pop()
            self._integrate_to(event.time_s)
            self.clock.advance_to(event.time_s)
            self._dispatch(event)
            self._refresh()
            if folds and event.kind == "tick":
                self._fold_quiet_ticks()
        makespan = self._makespan()
        # Energy integrates exactly to the last dispatched event — which
        # may trail the last finish by up to one monitor period (idle
        # ticks), but never covers the idle time past the final event
        # even when tracing sampled beyond it.
        results = [
            SystemResult(
                makespan_s=makespan,
                energy_j=lane.meter.energy_j,
                trace=self.trace,
                processes=self.processes,
                violations=lane.violations,
                voltage_transitions=self.chip.slimpro.transition_count(),
                frequency_transitions=self.chip.cppc.transition_count(),
            )
            for lane in self.lanes
        ]
        for lane, result in zip(self.lanes, results):
            lane.result = result
        if telemetry.enabled():
            self._flush_telemetry(results[-1])
        return results[0]

    # -- event handling ----------------------------------------------------------

    def _dispatch_policy(
        self, event: str, process: Optional[SimProcess] = None
    ) -> Optional[Action]:
        """Consult the policy on one control event and actuate its action.

        The engine's entire contact surface with the control plane: it
        builds the observation, asks ``decide`` and funnels any returned
        action through :func:`~repro.policies.actuation.apply_action` —
        there are no policy-specific branches anywhere in the simulator.
        An ``ADMIT`` action also places the arriving process
        (:meth:`_admission`). One increment of ``_controller_calls`` per
        dispatch keeps the ``sim.controller.callbacks`` counter's
        historical meaning.
        """
        self._controller_calls += 1
        obs = Observation(self, event, process)
        action = self.policy.decide(obs)
        if event is PolicyEvent.ADMIT:
            action = self._admission(process, action)
            if action is not None:
                apply_action(self, action, process)
        elif action is not None:
            apply_action(self, action)
        if self._policy_hooked:
            # ``obs`` is live, so the hook sees the post-actuation state.
            self.policy.on_applied(obs, action)
        return action

    def _dispatch(self, event: Event) -> None:
        self._event_counts[event.kind] += 1
        if event.kind == "arrival":
            self._handle_arrival(self._by_pid[event.payload])
        elif event.kind == "finish":
            self._handle_finish(event)
        elif event.kind == "phase":
            self._handle_phase(event)
        elif event.kind == "tick":
            self._handle_tick()
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {event.kind!r}")

    def _handle_arrival(self, process: SimProcess) -> None:
        self._pending_arrivals -= 1
        if not self._try_admit(process):
            self.queue.append(process)

    def _try_admit(self, process: SimProcess) -> bool:
        """Place ``process`` through the ``ADMIT`` dispatch, if it fits."""
        self._dispatch_policy(PolicyEvent.ADMIT, process)
        if not process.is_running:
            return False
        self._dispatch_policy(PolicyEvent.STARTED, process)
        return True

    def _admission(
        self, process: SimProcess, action: Optional[Action]
    ) -> Optional[Action]:
        """The ``ADMIT`` action with the cores it places ``process`` on.

        With no cores from the policy, the default placement is the
        Linux CFS balancer's: threads spread across PMDs (Fig. 2's
        *spreaded* allocation). While too few cores are idle the action
        places nothing and the arrival queues.
        """
        if action is not None and action.admit_cores is not None:
            return action
        idle = self.chip.idle_cores
        if len(idle) < process.nthreads:
            return action
        cores = pick_free_cores(
            self.spec, idle, process.nthreads, Allocation.SPREADED
        )
        if action is None:
            return Action(admit_cores=cores)
        return replace(action, admit_cores=cores)

    def _running_insert(self, process: SimProcess) -> None:
        """Keep ``_running`` sorted by position in ``self.processes``."""
        order = self._order
        rank = order[process.pid]
        running = self._running
        i = len(running)
        while i > 0 and order[running[i - 1].pid] > rank:
            i -= 1
        running.insert(i, process)

    def _handle_finish(self, event: Event) -> None:
        process = self._by_pid[event.payload]
        current = self._finish_events.get(process.pid)
        if current is None or current.seq != event.seq:
            return  # stale completion superseded by a reschedule
        del self._finish_events[process.pid]
        self._plan_of.pop(process.pid, None)
        self.chip.release_occupant(process.pid)
        process.finish(self.now)
        self._running.remove(process)
        self._dispatch_policy(PolicyEvent.FINISHED, process)
        self._admit_queued()

    def _admit_queued(self) -> None:
        while self.queue and self._try_admit(self.queue[0]):
            self.queue.popleft()

    def _handle_phase(self, event: Event) -> None:
        """A process crossed a phase boundary: rates change on refresh.

        The daemon is *not* notified directly — it must observe the
        shifted PMU rates through its monitor, as on real hardware.
        """
        process = self._by_pid[event.payload]
        current = self._phase_events.get(process.pid)
        if current is None or current.seq != event.seq:
            return  # superseded by a reschedule
        del self._phase_events[process.pid]

    def _handle_tick(self) -> None:
        self._dispatch_policy(PolicyEvent.TICK)
        work_left = (
            self._pending_arrivals > 0
            or bool(self.queue)
            or bool(self._running)
        )
        self._tick = None
        if work_left and self.policy.monitor_period_s:
            self._tick = self.events.schedule(
                self.now + self.policy.monitor_period_s, "tick"
            )

    # -- quiet-tick horizons -------------------------------------------------------

    def _fold_quiet_ticks(self) -> None:
        """Advance the quiet monitor ticks that follow a dispatched one.

        Offers the policy the next ticks as a :class:`TickHorizon` and
        advances the ones it calls quiet in one step, with the values
        dispatching each would leave (:meth:`_commit_ticks`); repeats
        while it takes a whole chunk.
        """
        while True:
            horizon = self._tick_horizon()
            if horizon is None:
                return
            quiet = self.policy.quiet_ticks(horizon)
            if quiet == 0:
                return
            if not 0 < quiet <= len(horizon):
                raise SimulationError(
                    f"policy called {quiet} of {len(horizon)} ticks quiet"
                )
            self._commit_ticks(quiet, horizon)
            if quiet < len(horizon):
                return

    def _tick_horizon(self) -> Optional[TickHorizon]:
        """The ticks before the next arrival, finish or phase event.

        ``None`` when no tick can precede the next of those events, and
        while a phased plan runs. Otherwise the running processes and a
        builder (:meth:`_horizon_arrays`) that the horizon calls when a
        policy first reads its arrays or length, so a policy that
        refuses the offer from the processes alone builds none.
        """
        tick = self._tick
        if tick is None or self._phased_plans:
            return None
        plans = self._plans
        stop = math.inf
        if self._pending_arrivals:
            # Arrivals pop in workload order.
            index = len(self.processes) - self._pending_arrivals
            stop = self.processes[index].arrival_s
        for event in self._phase_events.values():
            stop = min(stop, event.time_s)
        first_stop = min(
            [stop, *(self._finish_events[p.process.pid].time_s for p in plans)]
        )
        span = (first_stop - tick.time_s) / self.policy.monitor_period_s
        if not span > 0:
            return None
        return TickHorizon(
            tuple(p.process for p in plans),
            partial(self._horizon_arrays, stop, first_stop, span),
        )

    def _horizon_arrays(
        self, stop: float, first_stop: float, span: float
    ) -> Tuple[np.ndarray, ...]:
        """A horizon's arrays: what :class:`TickHorizon` shows, then more.

        The tick instants, each process's cycles and L3 accesses (the
        horizon's own arrays), then the intervals and, per process and
        tick, the remaining work and the recomputed finish time. The
        ticks end before any tick that another event would precede (ties
        included) or at which a process's remaining work reaches
        :data:`REMAINING_EPS`; there may be none.
        """
        plans = self._plans
        start = self._tick.time_s
        period = self.policy.monitor_period_s
        # About ceil(span) ticks precede first_stop; one more covers
        # rounding, and the exact cut below trims the rest.
        count = min(HORIZON_MAX_TICKS, int(min(span, HORIZON_MAX_TICKS)) + 2)
        # Each tick is the previous one plus the period, as dispatching
        # schedules it.
        steps = np.full(count, period)
        steps[0] = start
        times = np.add.accumulate(steps)
        dts = np.diff(times, prepend=self.now)
        freq = np.array([p.freq for p in plans], dtype=float)
        threads = np.array([p.nthreads for p in plans], dtype=float)[:, None]
        l3_rate_freq = np.array([p.l3_rate_freq for p in plans])
        duration = np.array([p.duration_s for p in plans])[:, None]
        # The expressions of _integrate_to and _reschedule_completions,
        # summed left to right along the tick axis.
        cycles = _accumulate(
            [p.counters.cycles for p in plans],
            np.multiply.outer(freq, dts) * threads,
        )
        accesses = _accumulate(
            [p.counters.l3_accesses for p in plans],
            (np.multiply.outer(l3_rate_freq, dts) / 1e6) * threads,
        )
        remaining = _accumulate(
            [p.process.remaining_fraction for p in plans],
            dts / duration,
            np.subtract,
        )
        finish = times + remaining * duration
        # Tick k is the next event while it precedes the finishes the
        # tick before it scheduled, and leaves work to do.
        before = np.full(count, stop)
        before[0] = first_stop
        if plans:
            np.minimum(before[1:], finish[:, :-1].min(axis=0), out=before[1:])
        quiet = (times < before) & (dts > 0)
        if plans:
            quiet &= (remaining > REMAINING_EPS).all(axis=0)
        if not quiet.all():
            count = int(np.argmin(quiet))
        return (
            times[:count],
            cycles[:, :count],
            accesses[:, :count],
            dts[:count],
            remaining[:, :count],
            finish[:, :count],
        )

    def _commit_ticks(self, quiet: int, horizon: TickHorizon) -> None:
        """Leave what dispatching the first ``quiet`` ticks would leave.

        Every value is the one the per-tick path computes: running sums
        add left to right along the tick axis, as ``+=`` does, and the
        thermal lanes step tick by tick because leakage feeds back into
        their power. The next tick and each rescheduled finish enter the
        queue in the order the per-tick path schedules them, so
        equal-time ties break the same way.
        """
        times, cycles, accesses, dts, remaining, finish = horizon.arrays()
        last = quiet - 1
        times = times[:quiet]
        dts = dts[:quiet]
        for plan, cycles_after, accesses_after, left in zip(
            self._plans,
            cycles[:, last].tolist(),
            accesses[:, last].tolist(),
            remaining[:, last].tolist(),
        ):
            plan.counters.cycles = cycles_after
            plan.counters.l3_accesses = accesses_after
            plan.process.remaining_fraction = left
        state = self._state
        running = bool(self._running)
        for lane in self.lanes:
            if lane.thermal is not None:
                continue
            lane.meter.accumulate_intervals(lane.power_w, dts)
            if running and state.voltage_mv < lane.required_base - 1e-9:
                lane.violations.extend(
                    ViolationRecord(
                        time_s=time_s,
                        voltage_mv=state.voltage_mv,
                        required_mv=lane.required_base,
                    )
                    for time_s in times.tolist()
                )
        thermal_lanes = self._thermal_lanes
        if thermal_lanes:
            for time_s, dt in zip(times.tolist(), dts.tolist()):
                self.clock.advance_to(time_s)
                for lane in thermal_lanes:
                    lane.meter.accumulate(lane.power_w, dt)
                    thermal = lane.thermal
                    thermal.step(lane.power_w, dt)
                    lane.temperature_series.append(
                        (time_s, thermal.temperature_c)
                    )
                self._sample_trace_until(time_s)
                for lane in thermal_lanes:
                    self._lane_power(lane)
                    if running:
                        self._check_rail(lane, state, lane.required_base)
        else:
            end_s = float(times[last])
            self._sample_trace_until(end_s)
            self.clock.advance_to(end_s)
        self._reschedule_folded(quiet, times, finish)
        self._event_counts["tick"] += quiet
        self._controller_calls += quiet
        self._refreshes_incremental += quiet
        self._ticks_folded += quiet

    def _reschedule_folded(
        self, quiet: int, times: np.ndarray, finish: np.ndarray
    ) -> None:
        """Queue the next tick and the finishes the folded ticks moved.

        A finish is kept where the per-tick path elides its reschedule
        (same time, still in the future) and otherwise rescheduled at
        the time of the last tick that moved it. Each tick schedules
        its successor before its refresh reschedules finishes in plan
        order, and the events go in in that order.
        """
        last = quiet - 1
        finish = finish[:, :quiet]
        events = self.events
        finish_events = self._finish_events
        plans = self._plans
        # (tick that last moved it, plan index) per moved finish.
        moved_at: List[Tuple[int, int]] = []
        if plans:
            before = np.array(
                [finish_events[p.process.pid].time_s for p in plans]
            )
            previous = np.concatenate(
                (before[:, None], finish[:, :-1]), axis=1
            )
            elided = (finish == previous) & (finish > times)
            self._reschedules_elided += int(elided.sum())
            moved = ~elided
            last_moved = last - np.argmax(moved[:, ::-1], axis=1)
            moved_at = sorted(
                (k, i)
                for i, (k, any_moved) in enumerate(
                    zip(last_moved.tolist(), moved.any(axis=1).tolist())
                )
                if any_moved
            )
        events.cancel(self._tick)
        next_tick_s = float(times[last]) + self.policy.monitor_period_s
        self._tick = None
        for k, i in moved_at:
            if k == last and self._tick is None:
                self._tick = events.schedule(next_tick_s, "tick")
            pid = plans[i].process.pid
            old = finish_events[pid]
            events.cancel(old)  # reprolint: disable=RL005 -- time changed
            finish_events[pid] = events.schedule(
                float(finish[i, k]), "finish", pid
            )
        if self._tick is None:
            self._tick = events.schedule(next_tick_s, "tick")

    # -- fluid integration ---------------------------------------------------------

    def _integrate_to(self, time_s: float) -> None:
        dt = time_s - self.now
        if dt <= 0:
            self._sample_trace_until(time_s)
            return
        for plan in self._plans:
            nthreads = plan.nthreads
            counters = plan.counters
            counters.cycles += plan.freq * dt * nthreads
            counters.l3_accesses += (plan.l3_rate_freq * dt / 1e6) * nthreads
            process = plan.process
            process.remaining_fraction = max(
                0.0, process.remaining_fraction - dt / plan.duration_s
            )
        for lane in self.lanes:
            lane.meter.accumulate(lane.power_w, dt)
            thermal = lane.thermal
            if thermal is not None:
                thermal.step(lane.power_w, dt)
                lane.temperature_series.append(
                    (time_s, thermal.temperature_c)
                )
        self._sample_trace_until(time_s)

    def _sample_trace_until(self, time_s: float) -> None:
        """Sample every trace instant up to ``time_s``.

        Nothing a sample reads changes within one call, so every sample
        of the call shows the same machine.
        """
        trace = self.trace
        if trace is None or self._next_sample_s > time_s + 1e-12:
            return
        counts = self._class_counts()
        state = self._state if self._state is not None else self.chip.state()
        active = state.active_pmds
        mean_freq = (
            sum(state.pmd_frequencies_hz[p] for p in active) / len(active)
            if active
            else self.spec.fmin_hz
        )
        while self._next_sample_s <= time_s + 1e-12:
            trace.append(
                TraceSample(
                    time_s=self._next_sample_s,
                    # One lane: a multi-lane system does not trace.
                    power_w=self.lanes[0].power_w,
                    busy_cores=len(state.active_cores),
                    running_processes=len(self._running),
                    cpu_intensive=counts[0],
                    memory_intensive=counts[1],
                    voltage_mv=state.voltage_mv,
                    mean_active_freq_hz=mean_freq,
                )
            )
            self._next_sample_s += trace.period_s

    def _class_counts(self) -> Tuple[int, int]:
        cpu = mem = 0
        for process in self._running:
            label = process.observed_class
            if label is WorkloadClass.UNKNOWN:
                label = process.reference_class
            if label is WorkloadClass.MEMORY_INTENSIVE:
                mem += 1
            else:
                cpu += 1
        return cpu, mem

    # -- state refresh ----------------------------------------------------------------

    def _refresh(self) -> None:
        """Recompute rates, power and completion times after any change.

        An occupancy, per-PMD clock, rail-voltage or behaviour-profile
        change forces a full recompute (contention couples every
        process to every other). Otherwise only what the advancing
        clock moves is redone: the thermal lanes' power, completion
        times and the safety audit against the cached safe-Vmin level.
        """
        chip = self.chip
        if (
            chip.occupancy_version != self._occ_version
            or chip.cppc.transition_count() != self._freq_version
            or chip.slimpro.transition_count() != self._volt_version
            or self._behaviour_changed()
        ):
            self._refreshes_full += 1
            self._recompute_all()
            return
        self._refreshes_incremental += 1
        # Temperature moves every interval: leakage and the thermal
        # Vmin shift must track it even on otherwise-clean refreshes.
        for lane in self._thermal_lanes:
            self._lane_power(lane)
        self._reschedule_completions()
        self._audit_cached(self._state)

    def _behaviour_changed(self) -> bool:
        """Whether a running process entered a new phase.

        Static programs never change behaviour, so only the phased
        plans are scanned.
        """
        for plan in self._phased_plans:
            if plan.process.current_profile() is not plan.behaviour:
                return True
        return False

    def _recompute_all(self) -> None:
        """Full refresh: recompute every derived quantity from the chip.

        Contention couples every process to every other, so every plan
        input is taken afresh: each process's slowest clock, behaviour
        and PMD sharing, and the contention factor. A plan whose inputs
        all equal those it was built from is kept (:class:`ReplayPlan`);
        the others are rebuilt (:meth:`_build_plan`).
        """
        chip = self.chip
        state = chip.state()
        running = self._running
        spec = self.spec
        per_pmd = spec.cores_per_pmd
        clocks = state.pmd_frequencies_hz
        busy = chip.pmd_busy_counts
        demand_of = self._demands
        demands: List[float] = []
        inputs: List[Tuple[int, BenchmarkProfile, bool]] = []
        for process in running:
            # The chip holds every core of a running process.
            pmds = [core // per_pmd for core in process.cores]
            freq = min([clocks[pmd] for pmd in pmds])
            # Another thread shares a PMD: its busy count holds both.
            shares = any([busy[pmd] > 1 for pmd in pmds])
            behaviour = process.current_profile()
            key = (id(behaviour), freq)
            demand = demand_of.get(key)
            if demand is None:
                demand = bandwidth_demand_gbs(behaviour, spec, freq)
                demand_of[key] = demand
            demands.extend([demand] * process.nthreads)
            inputs.append((freq, behaviour, shares))
        crowd = contention_factor(spec, demands)
        bw_util = bandwidth_utilization(spec, demands)
        plan_of = self._plan_of
        activity_map: Dict[int, float] = {}
        proc_states: Dict[int, ExecutionState] = {}
        plans: List[ReplayPlan] = []
        for process, (freq, behaviour, shares) in zip(running, inputs):
            plan = plan_of.get(process.pid)
            if (
                plan is None
                or plan.freq != freq
                or plan.behaviour is not behaviour
                or plan.shares_pmd != shares
                or plan.contention != crowd
            ):
                plan = self._build_plan(
                    process, freq, behaviour, shares, crowd, plan
                )
                plan_of[process.pid] = plan
            exec_state = plan.exec_state
            proc_states[process.pid] = exec_state
            activity = exec_state.effective_activity
            for core in process.cores:
                activity_map[core] = activity
            plans.append(plan)
        self._plans = plans
        self._phased_plans = [plan for plan in plans if plan.boundaries]
        self._proc_states = proc_states
        self._state = state
        self._activity_map = activity_map
        self._bw_util = bw_util
        self._occ_version = chip.occupancy_version
        self._freq_version = chip.cppc.transition_count()
        self._volt_version = chip.slimpro.transition_count()
        self._recompute_power(state)
        self._reschedule_completions()
        self._audit_voltage(state)

    def _build_plan(
        self,
        process: SimProcess,
        freq: int,
        behaviour: BenchmarkProfile,
        shares: bool,
        crowd: float,
        previous: Optional[ReplayPlan],
    ) -> ReplayPlan:
        """A new plan for ``process`` at these inputs.

        The execution state comes from the keyed cache; the phase
        boundaries, fixed by the process's program, from its previous
        plan when it has one.
        """
        key = (id(behaviour), freq, process.nthreads, shares, crowd)
        cache = self._exec_cache
        exec_state = cache.get(key)
        if exec_state is None:
            exec_state = execution_state(
                behaviour,
                self.spec,
                freq,
                nthreads=process.nthreads,
                shares_pmd=shares,
                contention=crowd,
            )
            if len(cache) >= EXEC_STATE_CACHE_MAX:
                cache.clear()
            cache[key] = exec_state
        plan = ReplayPlan(
            process=process,
            counters=process.counters,
            freq=freq,
            l3_rate_freq=exec_state.l3_rate_per_mcycles * freq,
            nthreads=process.nthreads,
            duration_s=exec_state.duration_s,
            boundaries=(
                previous.boundaries
                if previous is not None
                else tuple(phase_boundaries(process.profile))
            ),
            behaviour=behaviour,
            shares_pmd=shares,
            contention=crowd,
            exec_state=exec_state,
        )
        # With dt > 0, every counter and progress delta is non-negative
        # iff these are; a negative activity would draw negative dynamic
        # power.
        activity = exec_state.effective_activity
        if min(freq, plan.l3_rate_freq, activity, plan.duration_s) < 0:
            raise SimulationError(
                f"pid {process.pid}: negative clock, L3 rate, "
                "activity or duration in the replay plan"
            )
        return plan

    def _recompute_power(self, state: ChipState) -> None:
        """Evaluate the lane-independent breakdown, then each lane's power."""
        self._power = self.power_model.chip_power(
            state, self._activity_map, self._bw_util
        )
        for lane in self.lanes:
            self._lane_power(lane)

    def _lane_power(self, lane: SimLane) -> None:
        """One lane's power from the cached breakdown.

        ``chip_power(leakage_multiplier=m)`` scales ``n * leak`` by
        ``m`` and :attr:`PowerBreakdown.total_w` sums the parts left to
        right; the breakdown holds ``n * leak`` unscaled (``* 1.0`` is
        exact), so this is that evaluation bit for bit.
        """
        power = self._power
        thermal = lane.thermal
        if thermal is None:
            lane.power_w = power.total_w
            return
        multiplier = thermal.leakage_multiplier()
        if multiplier <= 0:
            raise ConfigurationError("leakage multiplier must be positive")
        lane.power_w = (
            power.dynamic_w
            + power.leakage_w * multiplier
            + power.pmd_overhead_w
            + power.uncore_w
            + power.external_w
        )

    def _reschedule_completions(self) -> None:
        now = self.now
        elide = self._elide
        finish_events = self._finish_events
        for plan in self._plans:
            process = plan.process
            remaining = process.remaining_fraction
            if remaining <= REMAINING_EPS:
                remaining_s = 0.0
            else:
                remaining_s = max(0.0, remaining * plan.duration_s)
            time_s = now + remaining_s
            old = finish_events.get(process.pid)
            if (
                elide
                and old is not None
                and old.time_s == time_s
                and time_s > now
            ):
                # Identical finish instant strictly in the future: the
                # pending event already encodes it; skip the churn.
                self._reschedules_elided += 1
            else:
                if old is not None:
                    self.events.cancel(old)  # reprolint: disable=RL005 -- time changed
                finish_events[process.pid] = self.events.schedule(
                    time_s, "finish", process.pid
                )
            if plan.boundaries:
                self._reschedule_phase(plan)

    def _reschedule_phase(self, plan: ReplayPlan) -> None:
        process = plan.process
        old = self._phase_events.get(process.pid)
        done = 1.0 - process.remaining_fraction
        boundary = None
        for candidate in plan.boundaries:
            if candidate > done + 1e-9:
                boundary = candidate
                break
        if boundary is None:
            if old is not None:
                del self._phase_events[process.pid]
                self.events.cancel(old)
            return
        # Progress advances at 1/duration done-fractions per second.
        eta_s = (boundary - done) * plan.duration_s
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
            self.events.cancel(old)  # reprolint: disable=RL005 -- time changed
        self._phase_events[process.pid] = self.events.schedule(
            time_s, "phase", process.pid
        )

    def _safe_levels(self, state: ChipState) -> List[float]:
        """Each lane's thermal-free safe Vmin for ``state``.

        Lanes on one silicon model share one evaluation. The workload
        term is the worst of the plans' behaviours, which are the
        running processes' active ones.
        """
        workload_delta = max(
            plan.behaviour.vmin_delta_mv for plan in self._plans
        )
        by_model: Dict[int, float] = {}
        levels = []
        for lane in self.lanes:
            model = lane.vmin_model
            level = by_model.get(id(model))
            if level is None:
                level = model.safe_vmin_for_state(
                    state, workload_delta_mv=workload_delta
                )
                by_model[id(model)] = level
            levels.append(level)
        return levels

    def _audit_voltage(self, state: ChipState) -> None:
        if not self._plans:
            return
        levels = self._safe_levels(state)
        for lane, level in zip(self.lanes, levels):
            lane.required_base = level
            self._check_rail(lane, state, level)

    def _audit_cached(self, state: ChipState) -> None:
        """Clean-refresh audit against the cached safe-Vmin level."""
        if not self._running:
            return
        for lane in self.lanes:
            self._check_rail(lane, state, lane.required_base)

    def _check_rail(
        self, lane: SimLane, state: ChipState, required: float
    ) -> None:
        """Audit one lane's rail against its thermal-free safe level."""
        if lane.thermal is not None:
            required += lane.thermal.vmin_shift_mv()
        if state.voltage_mv < required - 1e-9:
            record = ViolationRecord(
                time_s=self.now,
                voltage_mv=state.voltage_mv,
                required_mv=required,
            )
            lane.violations.append(record)

    def _makespan(self) -> float:
        finished = [
            p.finish_s for p in self.processes if p.finish_s is not None
        ]
        return max(finished) if finished else self.now

    # -- telemetry ---------------------------------------------------------------

    def _flush_telemetry(self, result: SystemResult) -> None:
        """Publish the run's aggregate counts into the metric registry.

        Called once per completed replay (never inside the event loop),
        so the hot path stays free of telemetry dispatch: the loop only
        bumps plain ints/dicts and this flush converts them into the
        structured counters the run manifest snapshots. Every value is
        derived from simulation state, not wall clock, so snapshots are
        deterministic for a given seed. Violations sum over the lanes;
        the gauges come from ``result``, the last lane's.
        """
        counts = self._event_counts
        telemetry.inc(
            metric_names.SIM_EVENTS_DISPATCHED, sum(counts.values())
        )
        telemetry.inc(
            metric_names.SIM_EVENT_ARRIVALS, counts.get("arrival", 0)
        )
        telemetry.inc(
            metric_names.SIM_EVENT_FINISHES, counts.get("finish", 0)
        )
        telemetry.inc(metric_names.SIM_EVENT_PHASES, counts.get("phase", 0))
        telemetry.inc(metric_names.SIM_EVENT_TICKS, counts.get("tick", 0))
        telemetry.inc(metric_names.SIM_EVENTS_FOLDED, self._ticks_folded)
        telemetry.inc(
            metric_names.SIM_EVENTS_SCHEDULED, self.events.scheduled_total
        )
        telemetry.inc(
            metric_names.SIM_EVENTS_CANCELLED, self.events.cancelled_total
        )
        telemetry.inc(
            metric_names.SIM_CONTROLLER_CALLBACKS, self._controller_calls
        )
        telemetry.inc(metric_names.POLICY_CLAMPS, self.clamps)
        telemetry.inc(
            metric_names.SIM_VIOLATIONS,
            sum(len(lane.violations) for lane in self.lanes),
        )
        telemetry.inc(
            metric_names.SIM_VOLTAGE_TRANSITIONS,
            result.voltage_transitions,
        )
        telemetry.inc(
            metric_names.SIM_FREQUENCY_TRANSITIONS,
            result.frequency_transitions,
        )
        telemetry.inc(metric_names.SIM_RUNS)
        telemetry.inc(metric_names.SIM_REFRESH_FULL, self._refreshes_full)
        telemetry.inc(
            metric_names.SIM_REFRESH_INCREMENTAL,
            self._refreshes_incremental,
        )
        telemetry.inc(
            metric_names.SIM_RESCHEDULE_ELIDED, self._reschedules_elided
        )
        if self.trace is not None:
            telemetry.inc(
                metric_names.SIM_TRACE_SAMPLES, len(self.trace.samples)
            )
        # Simulation time and integrated energy are seed-deterministic,
        # so they may live in gauges (fingerprinted) despite the _s/_j
        # suffixes: they are model outputs, not wall-clock measurements.
        telemetry.set_gauge(metric_names.SIM_MAKESPAN_S, result.makespan_s)
        telemetry.set_gauge(metric_names.SIM_ENERGY_J, result.energy_j)


def _accumulate(
    start: Sequence[float], deltas: np.ndarray, ufunc=np.add
) -> np.ndarray:
    """Each row's running ``ufunc`` of ``deltas`` from its start value.

    ``_accumulate(s, d)[i, k]`` is ``s[i]`` combined with ``d[i, 0]``
    through ``d[i, k]`` one at a time, left to right, as repeated ``+=``
    (or ``-=``) would leave it.
    """
    rows = np.concatenate(
        (np.array(start, dtype=float)[:, None], deltas), axis=1
    )
    return ufunc.accumulate(rows, axis=1)[:, 1:]
