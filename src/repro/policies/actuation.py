"""The actuation layer: the one place an :class:`Action` touches silicon.

Every voltage, frequency and placement request of every policy funnels
through :func:`apply_action`, which actuates the fields of an
:class:`~repro.policies.surfaces.Action` in the paper's fail-safe order
(Fig. 13):

1. **raise** — move the rail *up* to the pre-reconfiguration level (a
   raise can never lower the voltage; equal or lower requests no-op);
2. **migrations** — move threads, as one atomic multi-process migration
   (all old cores released before any new core is occupied);
3. **frequencies** — per-PMD CPPC requests in the action's insertion
   order (the CPPC model no-ops requests equal to the current clock, so
   a full per-PMD map costs exactly what a changed subset costs);
4. **settle** — the final rail level, applied unconditionally (this is
   the only step that may lower the voltage).

This ordering is bit-for-bit the sequence the pre-refactor controllers
performed, so policies composed from plans produce identical transition
streams. reprolint rule RL010 bans direct SLIMpro/CPPC actuation and
thread migration everywhere outside :mod:`repro.platform`; the
suppressions below are the rule's single sanctioned escape hatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .surfaces import Action

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.system import ServerSystem


def apply_action(system: "ServerSystem", action: Action) -> None:
    """Actuate one policy action against the live system.

    See the module docstring for the field ordering and semantics.
    Invalid migrations (a target core held by a process that is not
    moving, or claimed by two movers) raise
    :class:`~repro.errors.SimulationError` before any core moves.
    """
    chip = system.chip
    now = system.now
    raise_mv = action.raise_voltage_mv
    if raise_mv is not None and raise_mv > chip.voltage_mv:
        # Fail-safe protocol: the rail moves up before any
        # reconfiguration the level protects.
        chip.set_voltage(raise_mv, now)  # reprolint: disable=RL010 -- the arbitration/actuation layer is the sanctioned funnel
    migrations = action.migrations
    if migrations:
        by_pid = {p.pid: p for p in system.running_processes()}
        moves = {}
        for pid, cores in migrations.items():
            process = by_pid.get(pid)
            if process is None:
                # The plan may reference processes that finished (or
                # were never admitted) between planning and actuation.
                continue
            target = tuple(cores)
            if tuple(process.cores) != target:
                moves[process] = target
        if moves:
            system.migrate_many(moves)  # reprolint: disable=RL010 -- the arbitration/actuation layer is the sanctioned funnel
    freqs = action.pmd_freqs_hz
    if freqs:
        for pmd, freq in freqs.items():
            chip.set_pmd_frequency(pmd, freq, now)  # reprolint: disable=RL010 -- the arbitration/actuation layer is the sanctioned funnel
    settle_mv = action.voltage_mv
    if settle_mv is not None:
        chip.set_voltage(settle_mv, now)  # reprolint: disable=RL010 -- the arbitration/actuation layer is the sanctioned funnel
