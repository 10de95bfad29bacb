"""The actuation layer: the one place an :class:`Action` touches silicon.

Every voltage, frequency and placement request of every policy, and
every admission of an arriving process, funnels through
:func:`apply_action`. It first clamps the rail the action leaves behind
to the measured safe Vmin, then actuates the fields of an
:class:`~repro.policies.surfaces.Action` in the paper's fail-safe order
(Fig. 13):

1. **raise** — move the rail *up* to the pre-reconfiguration level (a
   raise can never lower the voltage; equal or lower requests no-op);
2. **migrations** — move threads, as one atomic multi-process migration
   (all old cores released before any new core is occupied);
3. **admission** — place the arriving process of an ``ADMIT`` event on
   ``admit_cores``;
4. **frequencies** — per-PMD CPPC requests in the action's insertion
   order, only those that differ from the live clock: CPPC records no
   transition for a request equal to an on-grid live clock, so a full
   per-PMD map leaves what its changed subset leaves;
5. **settle** — the final rail level, applied unconditionally (this is
   the only step that may lower the voltage).

**The clamp.** Before the raise, the funnel works out the state the
action leaves: the PMDs in use after its migrations and admission, and
the top clock among them after its set-points, snapped as CPPC snaps
them. It looks that state up in the table the policy drives the rail
from (:attr:`~repro.policies.surfaces.Policy.vmin_table`, else the
chip's registered characterization). When the rail the action leaves —
the settle level if set, else the higher of the current rail and the
raise — sits below that level, the raise and any settle are lifted to
it and the system counts one clamp (``policy.clamps``). A rail at or
above nominal needs no lookup: table levels never exceed nominal. No
policy can therefore drive the rail below its table, and no admission
can add a PMD or a clock class the rail does not already cover.

Every PMD id of the set-points and every core the action moves or
admits a thread to is range-checked first: a bad one raises
:class:`~repro.errors.ConfigurationError` before anything moves.

reprolint rule RL010 bans direct SLIMpro/CPPC actuation, thread
migration and admission everywhere outside :mod:`repro.platform`; the
suppressions below are the rule's single sanctioned escape hatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..errors import ConfigurationError
from .surfaces import Action

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..platform.chip import Chip
    from ..sim.process import SimProcess
    from ..sim.system import ServerSystem


def apply_action(
    system: "ServerSystem",
    action: Action,
    arriving: Optional["SimProcess"] = None,
) -> None:
    """Clamp and actuate one policy action against the live system.

    ``arriving`` is the process of an ``ADMIT`` event, placed on the
    action's ``admit_cores``. See the module docstring for the clamp
    and the field ordering. Invalid migrations (a target core held by a
    process that is not moving, or claimed by two movers) raise
    :class:`~repro.errors.SimulationError` before any core moves.
    """
    chip = system.chip
    now = system.now
    raise_mv = action.raise_voltage_mv
    settle_mv = action.voltage_mv
    admit = action.admit_cores if arriving is not None else None
    moves = _moves(system, action)
    _check_cores(chip, *moves.values(), admit or ())
    setpoints = _changed_setpoints(chip, action.pmd_freqs_hz)
    rail = settle_mv
    if rail is None:
        rail = chip.voltage_mv
        if raise_mv is not None and raise_mv > rail:
            rail = raise_mv
    if rail < system.spec.nominal_voltage_mv:
        required = _table_level(system, setpoints, moves, admit)
        if rail < required:
            system.clamps += 1
            if raise_mv is None or raise_mv < required:
                raise_mv = required
            if settle_mv is not None:
                settle_mv = required
    if raise_mv is not None and raise_mv > chip.voltage_mv:
        # Fail-safe protocol: the rail moves up before any
        # reconfiguration the level protects.
        chip.set_voltage(raise_mv, now)  # reprolint: disable=RL010 -- the clamping funnel is the sanctioned actuator
    if moves:
        system.migrate_many(moves)  # reprolint: disable=RL010 -- the clamping funnel is the sanctioned actuator
    if admit is not None:
        system.admit(arriving, tuple(admit))  # reprolint: disable=RL010 -- the clamping funnel is the sanctioned actuator
    for pmd, freq in setpoints.items():
        chip.set_pmd_frequency(pmd, freq, now)  # reprolint: disable=RL010 -- the clamping funnel is the sanctioned actuator
    if settle_mv is not None:
        chip.set_voltage(settle_mv, now)  # reprolint: disable=RL010 -- the clamping funnel is the sanctioned actuator


def _moves(
    system: "ServerSystem", action: Action
) -> Dict["SimProcess", Tuple[int, ...]]:
    """The migrations of ``action`` that move a running process."""
    moves: Dict["SimProcess", Tuple[int, ...]] = {}
    migrations = action.migrations
    if migrations:
        by_pid = {p.pid: p for p in system.running_processes()}
        for pid, cores in migrations.items():
            process = by_pid.get(pid)
            if process is None:
                # The plan may reference processes that finished (or
                # were never admitted) between planning and actuation.
                continue
            target = tuple(cores)
            if tuple(process.cores) != target:
                moves[process] = target
    return moves


def _check_cores(chip: "Chip", *core_sets: Iterable[int]) -> None:
    """Reject any core outside the chip before a thread moves."""
    n_cores = chip.spec.n_cores
    for cores in core_sets:
        for core in cores:
            if not 0 <= core < n_cores:
                raise ConfigurationError(
                    f"{chip.spec.name}: core {core} out of range"
                )


def _changed_setpoints(
    chip: "Chip", freqs: Optional[Dict[int, int]]
) -> Dict[int, int]:
    """The set-points of ``freqs`` CPPC would act on, in their order.

    CPPC snaps a request to the frequency grid and records a transition
    only when the snapped clock differs from the live one. A request
    equal to a live clock on the grid snaps to it, so it is left out;
    the live clock is off the grid only at a chip's start, when fmax
    is not a whole step. Every PMD id is range-checked.
    """
    if not freqs:
        return {}
    live = chip.cppc.frequencies()
    steps = chip.spec.frequency_steps()
    changed: Dict[int, int] = {}
    for pmd, freq in freqs.items():
        if not 0 <= pmd < len(live):
            raise ConfigurationError(
                f"{chip.spec.name}: PMD {pmd} out of range "
                f"(chip has {len(live)})"
            )
        current = live[pmd]
        if freq != current or current not in steps:
            changed[pmd] = freq
    return changed


def _table_level(
    system: "ServerSystem",
    setpoints: Dict[int, int],
    moves: Dict["SimProcess", Tuple[int, ...]],
    admit: Optional[Tuple[int, ...]],
) -> int:
    """The table's safe level for the state an action leaves behind.

    The PMDs in use are the chip's busy-core counts with the moved and
    admitted threads applied; a process that stays put costs nothing.
    Each one's clock is its changed set-point, snapped as CPPC snaps it,
    else its live clock. Every core is range-checked already.
    """
    spec = system.spec
    per_pmd = spec.cores_per_pmd
    busy = list(system.chip.pmd_busy_counts)
    for process, target in moves.items():
        for core in process.cores:
            busy[core // per_pmd] -= 1
        for core in target:
            busy[core // per_pmd] += 1
    if admit:
        for core in admit:
            busy[core // per_pmd] += 1
    pmds = [pmd for pmd, count in enumerate(busy) if count]
    live = system.chip.cppc.frequencies()
    top = spec.fmin_hz
    for pmd in pmds:
        freq = setpoints.get(pmd)
        if freq is None:
            freq = live[pmd]
        else:
            freq = spec.nearest_frequency(freq)
        if freq > top:
            top = freq
    return system.vmin_table().safe_voltage_mv(len(pmds), top)
