"""The placement half of the online daemon (Section VI.A, Fig. 13).

Given the monitor's classification of every running process, the
placement engine decides:

* **where threads run** — CPU-intensive (and still-unclassified)
  processes are *clustered* onto as few PMDs as possible, which lowers
  the droop class and therefore the rail voltage, and costs them nothing
  because they barely touch the shared L2/L3 path; memory-intensive
  processes are *spreaded* over the remaining PMDs, each with its own L2
  (the Fig. 7 trade-off);
* **each PMD's clock** — PMDs hosting CPU-intensive work run at fmax
  (performance constraint), PMDs hosting only memory-intensive work run
  at the chip's *energy frequency* (the clock-division point 0.9 GHz on
  X-Gene 2, the half clock 1.5 GHz on X-Gene 3 — Section V), idle PMDs
  park at the floor;
* **the rail voltage** — the policy table's worst-case safe Vmin for the
  utilized-PMD count and top clock, applied with the fail-safe ordering:
  *raise voltage first, reconfigure, then settle down* — never the other
  way around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..allocation import Allocation, FreeCores
from ..errors import PlacementError
from ..platform.chip import ChipState
from ..platform.specs import ChipSpec
from ..policies.surfaces import Action
from ..sim.process import SimProcess, WorkloadClass
from .policy import VminPolicyTable


def default_memory_frequency_hz(spec: ChipSpec) -> int:
    """The chip's best energy-efficiency clock for memory-bound work.

    On chips with the clock-division path (X-Gene 2) this is the largest
    setting *below* half of fmax — 0.9 GHz, where the ~12 % Vmin drop
    lives (Section II.B). On chips without it (X-Gene 3), sub-half
    settings share the half clock's Vmin but run slower, so the half
    clock itself (1.5 GHz) is optimal.
    """
    half = spec.half_frequency_hz
    if spec.clock_division_below_half:
        below = [f for f in spec.frequency_steps() if f < half]
        if below:
            return max(below)
    return half


@dataclass
class PlacementPlan:
    """Target configuration computed by one planning pass."""

    #: pid -> target cores, covering every running process.
    assignments: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: pmd id -> target clock, covering every PMD.
    pmd_freqs_hz: Dict[int, int] = field(default_factory=dict)
    #: Target rail voltage; ``None`` when the engine does not control it.
    voltage_mv: Optional[int] = None
    utilized_pmds: int = 0
    max_active_freq_hz: int = 0


class PlacementEngine:
    """Computes placement plans and their fail-safe-ordered actions."""

    def __init__(
        self,
        spec: ChipSpec,
        policy: Optional[VminPolicyTable] = None,
        control_voltage: bool = True,
        cpu_freq_hz: Optional[int] = None,
        mem_freq_hz: Optional[int] = None,
        idle_freq_hz: Optional[int] = None,
    ):
        self.spec = spec
        self.policy = policy or VminPolicyTable.from_characterization(spec)
        self.control_voltage = control_voltage
        self.cpu_freq_hz = spec.nearest_frequency(
            cpu_freq_hz if cpu_freq_hz is not None else spec.fmax_hz
        )
        self.mem_freq_hz = spec.nearest_frequency(
            mem_freq_hz
            if mem_freq_hz is not None
            else default_memory_frequency_hz(spec)
        )
        self.idle_freq_hz = spec.nearest_frequency(
            idle_freq_hz if idle_freq_hz is not None else spec.fmin_hz
        )

    # -- planning ---------------------------------------------------------------

    def plan(self, processes: Sequence[SimProcess]) -> PlacementPlan:
        """Compute the target configuration for the given running set.

        CPU-intensive and unclassified processes are packed first
        (clustered), memory-intensive ones are spread over what remains.
        Raises :class:`PlacementError` when the processes need more cores
        than the chip has (the generator's guarantee makes this a bug).
        """
        total_threads = sum(p.nthreads for p in processes)
        if total_threads > self.spec.n_cores:
            raise PlacementError(
                f"{total_threads} threads exceed {self.spec.n_cores} cores"
            )
        cpu_group = [
            p for p in processes
            if p.observed_class is not WorkloadClass.MEMORY_INTENSIVE
        ]
        mem_group = [
            p for p in processes
            if p.observed_class is WorkloadClass.MEMORY_INTENSIVE
        ]
        free = FreeCores(self.spec, range(self.spec.n_cores))
        plan = PlacementPlan()
        for process in sorted(
            cpu_group, key=lambda p: (-p.nthreads, p.pid)
        ):
            plan.assignments[process.pid] = free.take(
                process.nthreads, Allocation.CLUSTERED
            )
        for process in sorted(
            mem_group, key=lambda p: (-p.nthreads, p.pid)
        ):
            plan.assignments[process.pid] = free.take(
                process.nthreads, Allocation.SPREADED
            )
        self._fill_frequencies(plan, processes)
        self._fill_voltage(plan)
        return plan

    def retune(
        self, processes: Sequence[SimProcess]
    ) -> PlacementPlan:
        """Recompute clocks and voltage for the *current* assignment.

        Used on classification changes (Fig. 13's case (b)): utilized
        PMDs cannot change then, so threads stay put and only frequencies
        and the rail move.
        """
        plan = PlacementPlan()
        for process in processes:
            plan.assignments[process.pid] = tuple(process.cores)
        self._fill_frequencies(plan, processes)
        self._fill_voltage(plan)
        return plan

    def _fill_frequencies(
        self, plan: PlacementPlan, processes: Sequence[SimProcess]
    ) -> None:
        class_of: Dict[int, WorkloadClass] = {
            p.pid: p.observed_class for p in processes
        }
        pmd_kind: Dict[int, str] = {}
        for pid, cores in plan.assignments.items():
            kind = (
                "mem"
                if class_of[pid] is WorkloadClass.MEMORY_INTENSIVE
                else "cpu"
            )
            for core in cores:
                pmd = self.spec.pmd_of_core(core)
                # A PMD hosting any CPU-intensive thread must run at the
                # CPU clock; never slow a CPU-bound process down.
                if pmd_kind.get(pmd) != "cpu":
                    pmd_kind[pmd] = kind
        utilized = 0
        max_freq = 0
        for pmd in range(self.spec.n_pmds):
            kind = pmd_kind.get(pmd)
            if kind == "cpu":
                freq = self.cpu_freq_hz
            elif kind == "mem":
                freq = self.mem_freq_hz
            else:
                freq = self.idle_freq_hz
            plan.pmd_freqs_hz[pmd] = freq
            if kind is not None:
                utilized += 1
                max_freq = max(max_freq, freq)
        plan.utilized_pmds = utilized
        plan.max_active_freq_hz = max_freq or self.idle_freq_hz

    def _fill_voltage(self, plan: PlacementPlan) -> None:
        if not self.control_voltage:
            plan.voltage_mv = None
            return
        plan.voltage_mv = self.policy.safe_voltage_mv(
            plan.utilized_pmds, plan.max_active_freq_hz
        )

    # -- fail-safe actions (Fig. 13) ----------------------------------------------

    def _transitional_mv(self, state: ChipState, plan: PlacementPlan) -> int:
        """Rail level that is safe before, during and after the change.

        The worst case over the old and new configurations: the policy
        table is monotone in both the droop class and the frequency
        class, so evaluating at (max PMDs, max clock) bounds every
        intermediate state of the transition.
        """
        required = self.policy.safe_voltage_mv(
            max(len(state.active_pmds), plan.utilized_pmds),
            max(state.max_active_frequency(), plan.max_active_freq_hz),
        )
        return max(required, plan.voltage_mv or 0)

    def action_for(self, plan: PlacementPlan, state: ChipState) -> Action:
        """Express a plan as one fail-safe-ordered control action.

        ``state`` is the chip state the transition starts from (used for
        the transitional raise level). The action carries the *full*
        assignment map; the actuation layer diffs it against the live
        running set, so planning needs no knowledge of which threads
        actually move.
        """
        raise_mv: Optional[int] = None
        if self.control_voltage and plan.voltage_mv is not None:
            raise_mv = self._transitional_mv(state, plan)
        return Action(
            raise_voltage_mv=raise_mv,
            migrations=dict(plan.assignments),
            pmd_freqs_hz=dict(plan.pmd_freqs_hz),
            voltage_mv=plan.voltage_mv if self.control_voltage else None,
        )

    def arrival_raise_mv(
        self, state: ChipState, nthreads: int
    ) -> Optional[int]:
        """Fail-safe rail level before a new process is invoked (Fig. 13).

        The new process will add at most ``nthreads`` cores' worth of
        PMDs; the returned level bounds the worst configuration the
        arrival could create (``None`` when the engine does not control
        the rail). The raise actuation only ever moves the rail up, so
        callers may request the level unconditionally.
        """
        if not self.control_voltage:
            return None
        worst_pmds = min(
            self.spec.n_pmds, len(state.active_pmds) + nthreads
        )
        return self.policy.safe_voltage_mv(
            worst_pmds,
            max(state.max_active_frequency(), self.cpu_freq_hz),
        )
