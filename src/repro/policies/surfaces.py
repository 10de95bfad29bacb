"""The control-plane surfaces: what a policy may see and may request.

The paper's online daemon (Section VI) is a decision loop: read the
machine (PMU counters, utilized PMDs, the rail, wall-clock time), decide
a configuration (voltage set-point, per-PMD clocks, placement), actuate
it through SLIMpro/CPPC. This module fixes that loop as two explicit
typed surfaces:

* :class:`Observation` — a read-only *live* view of the simulated server
  handed to a policy at every control event. It is deliberately a thin
  window over :class:`~repro.sim.system.ServerSystem` rather than a
  snapshot: properties read the current machine state at access time, so
  a policy pays only for what it looks at (the hot dispatch path of the
  incremental engine stays allocation-free for policies that ignore an
  event).
* :class:`Action` — everything a policy may request back: a fail-safe
  voltage raise, thread migrations, the cores of an arriving process,
  per-PMD frequency set-points and a settle voltage. ``None`` fields
  mean "no request"; the actuation layer
  (:mod:`repro.policies.actuation`) clamps the rail to the safe-Vmin
  table and applies the non-``None`` fields in the paper's fail-safe
  order (raise -> reconfigure -> settle).

:class:`Policy` replaces the old ``Controller`` ABC. A policy is a
single function of the observation::

    def decide(self, obs: Observation) -> Optional[Action]

dispatched on five event kinds (:class:`PolicyEvent`). Policies that
need the *post-actuation* machine state (the Fig. 13 flow tracer, or
audit tooling) additionally override :meth:`Policy.on_applied`; the
engine detects the override once per run and skips the hook entirely
otherwise. A ticking policy may answer :meth:`Policy.quiet_ticks` for a
:class:`TickHorizon`, the next monitor ticks, so the engine can advance
the ones it would leave alone without dispatching each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.policy import VminPolicyTable
    from ..platform.chip import Chip, ChipState
    from ..platform.specs import ChipSpec
    from ..sim.process import SimProcess
    from ..sim.system import ServerSystem


class PolicyEvent:
    """The five control events a policy is consulted on.

    Matches the old ``Controller`` hook set one-to-one so the ported
    policies keep their exact callback cadence (and the
    ``sim.controller.callbacks`` telemetry counter its meaning):

    * ``START`` — simulation begins, before any arrival (park clocks,
      set the initial rail);
    * ``ADMIT`` — a process is about to be placed (pre-invocation
      fail-safe raise; optionally choose the cores);
    * ``STARTED`` — a process was placed and occupies its cores;
    * ``FINISHED`` — a process released its cores;
    * ``TICK`` — one monitor period elapsed (only delivered when the
      policy sets :attr:`Policy.monitor_period_s`).
    """

    START = "start"
    ADMIT = "admit"
    STARTED = "started"
    FINISHED = "finished"
    TICK = "tick"


class Observation:
    """Read-only live view of the server for one policy decision.

    Everything the paper's monitor can read is reachable from here: the
    wall clock, rail voltage, per-PMD clocks and occupancy, the running
    processes (whose ``counters`` carry the cycles/L3C snapshot the
    classifier consumes) and the energy meter.
    Properties are computed on access against the *current* machine
    state — inside :meth:`Policy.on_applied` the same observation
    object therefore shows the post-actuation state.
    """

    __slots__ = ("system", "event", "process")

    def __init__(
        self,
        system: "ServerSystem",
        event: str,
        process: Optional["SimProcess"] = None,
    ):
        #: The system under control (treat as read-only).
        self.system = system
        #: One of the :class:`PolicyEvent` kinds.
        self.event = event
        #: The process the event concerns (``ADMIT``/``STARTED``/
        #: ``FINISHED``), else ``None``.
        self.process = process

    # -- wall clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Simulated wall-clock time, seconds."""
        return self.system.now

    # -- chip state ----------------------------------------------------------

    @property
    def spec(self) -> "ChipSpec":
        """Platform specification of the chip under control."""
        return self.system.spec

    @property
    def chip(self) -> "Chip":
        """The chip (treat as read-only; actuate via :class:`Action`)."""
        return self.system.chip

    @property
    def voltage_mv(self) -> int:
        """Current rail voltage, mV."""
        return self.system.chip.voltage_mv

    @property
    def active_cores(self) -> frozenset:
        """Cores with a running thread."""
        return self.system.chip.active_cores

    @property
    def utilized_pmds(self) -> frozenset:
        """PMDs with at least one running thread (the droop class input)."""
        return self.system.chip.utilized_pmds

    def chip_state(self) -> "ChipState":
        """Immutable snapshot of rail, clocks and occupancy."""
        return self.system.chip.state()

    def pmd_is_idle(self, pmd: int) -> bool:
        """True when no core of ``pmd`` runs a thread."""
        return self.system.chip.pmd_is_fully_idle(pmd)

    def pmd_frequency_hz(self, pmd: int) -> int:
        """Current clock of one PMD, Hz."""
        return self.system.chip.cppc.frequency_of(pmd)

    # -- power ---------------------------------------------------------------

    @property
    def energy_j(self) -> float:
        """Accumulated chip energy since the run started, J.

        Energy is lane state (:class:`~repro.sim.system.SimLane`): a
        policy that reads it declares :attr:`Policy.reads_lane_state`,
        and on a multi-lane system this raises
        :class:`~repro.errors.SimulationError` rather than show one lane.
        """
        lanes = self.system.lanes
        if len(lanes) != 1:
            raise SimulationError(
                f"energy is per lane and this system has {len(lanes)}; "
                "a policy that reads it must declare reads_lane_state"
            )
        return lanes[0].meter.energy_j

    # -- workload ------------------------------------------------------------

    def running_processes(self) -> List["SimProcess"]:
        """Currently running processes (counters, class, cores)."""
        return self.system.running_processes()

    @property
    def queue_depth(self) -> int:
        """Arrived-but-unplaced processes waiting for cores."""
        return len(self.system.queue)

    def process_frequency_hz(self, process: "SimProcess") -> int:
        """Lowest clock among a process's occupied cores, Hz."""
        return self.system.process_frequency_hz(process)


@dataclass(slots=True)
class Action:
    """A policy's requested reconfiguration; ``None`` fields are no-ops.

    The actuation layer applies the fields in the paper's fail-safe
    order (Fig. 13): first the conditional *raise* (the rail only ever
    moves up before a reconfiguration), then *migrations*, then the
    *admission*, then per-PMD *frequencies*, then the *settle* voltage.
    See :func:`repro.policies.actuation.apply_action` for the exact
    semantics of each field and for the safe-Vmin clamp it applies
    first.
    """

    #: Fail-safe pre-reconfiguration rail level, mV. Applied only when
    #: above the current rail (a raise can never lower the voltage).
    raise_voltage_mv: Optional[int] = None
    #: Thread migrations, pid -> target cores. Pids not currently
    #: running and no-op moves are skipped; the rest are applied as one
    #: atomic :meth:`~repro.sim.system.ServerSystem.migrate_many`.
    migrations: Optional[Dict[int, Tuple[int, ...]]] = None
    #: Per-PMD frequency set-points, Hz, applied in insertion order.
    pmd_freqs_hz: Optional[Dict[int, int]] = None
    #: Rail settle level, mV, applied last (may lower the voltage).
    voltage_mv: Optional[int] = None
    #: For ``ADMIT`` events only: the cores to place the arriving
    #: process on; ``None`` means the system's default spread
    #: placement (:meth:`~repro.sim.system.ServerSystem._admission`).
    admit_cores: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True, eq=False, slots=True)
class TickHorizon:
    """The next monitor ticks, offered to :meth:`Policy.quiet_ticks`.

    The ticks run up to the next arrival, finish or phase event. Column
    ``k`` of :attr:`cycles` and :attr:`l3_accesses` holds each running
    process's counters as tick ``k`` reads them, the values an exact
    counter read (:func:`~repro.core.monitoring.kernel_module_reader`)
    returns there.
    """

    #: Each tick's instant, seconds, ascending.
    times: np.ndarray
    #: The running processes, in the order a monitor pass visits them.
    processes: Tuple["SimProcess", ...]
    #: Cycle counter of each process (row) after each tick (column).
    cycles: np.ndarray
    #: L3C access counter of each process after each tick.
    l3_accesses: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


class Policy:
    """Base control policy: observe the machine, request an action.

    The default implementation never requests anything — a system run
    with the bare :class:`Policy` behaves like the uncontrolled machine.
    Subclasses override :meth:`decide`; policies that drive a monitor
    loop set :attr:`monitor_period_s` to receive ``TICK`` events.
    """

    #: Registry key the policy was resolved under, or ``None`` when the
    #: instance was constructed directly (set by the policy registry).
    key: Optional[str] = None

    #: Monitor period in seconds; ``None`` disables ``TICK`` events.
    monitor_period_s: Optional[float] = None

    #: The safe-Vmin table the policy drives the rail from, or ``None``.
    #: :func:`~repro.policies.actuation.apply_action` clamps every
    #: action against it; a policy that holds none is clamped against
    #: the chip's registered characterization.
    vmin_table: Optional["VminPolicyTable"] = None

    #: Whether :meth:`decide` reads lane state (:attr:`Observation.energy_j`).
    #: Lanes of one system may differ only in what no policy reads, so a
    #: multi-lane :class:`~repro.sim.system.ServerSystem` refuses a
    #: policy that declares this.
    reads_lane_state: bool = False

    def decide(self, obs: Observation) -> Optional[Action]:
        """Decide on one control event; ``None`` means no action."""
        return None

    def quiet_ticks(self, horizon: TickHorizon) -> int:
        """How many leading ticks of ``horizon`` are quiet, committed.

        A quiet tick is one whose ``TICK`` decision would request
        nothing and change no state the engine does not advance itself.
        A policy that answers commits its own state for those ticks, as
        deciding each would have, and the engine then advances them
        without dispatching them. The default folds nothing, so every
        tick is dispatched; a policy with an :meth:`on_applied` hook is
        never asked.
        """
        return 0

    def on_applied(
        self, obs: Observation, action: Optional[Action]
    ) -> None:
        """Post-actuation hook; ``obs`` now shows the applied state.

        Only invoked when a subclass overrides it — the dispatch loop
        checks once per run and skips the call entirely otherwise, so
        ordinary policies pay nothing for it.
        """

    def decision_counters(self) -> Dict[str, int]:
        """Decision counters for ``repro policy compare`` and tooling."""
        return {}
