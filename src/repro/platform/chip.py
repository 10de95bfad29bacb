"""Runtime chip model: cores, PMDs, shared rail, occupancy tracking.

A :class:`Chip` instance is a *specific piece of silicon*: it combines the
immutable :class:`~repro.platform.specs.ChipSpec` with mutable runtime
state (rail voltage via :class:`~repro.platform.slimpro.SlimPro`, per-PMD
frequencies via :class:`~repro.platform.cppc.CppcController`, core
occupancy) and a ``silicon_seed`` identifying the manufacturing-variation instance
(different seeds model chip-to-chip variation; the default seed reproduces
the specific chips characterized in the paper, e.g. the robust PMD2 of
Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import ConfigurationError, SchedulingError
from .cppc import CppcController
from .slimpro import SlimPro
from .specs import ChipSpec


@dataclass(frozen=True)
class ChipState:
    """Immutable snapshot of a chip's operating point.

    Passed to the power, performance and Vmin models so they can
    evaluate a configuration without holding a reference to the live chip.
    """

    spec: ChipSpec
    voltage_mv: int
    pmd_frequencies_hz: Tuple[int, ...]
    active_cores: FrozenSet[int]

    @cached_property
    def active_pmds(self) -> FrozenSet[int]:
        """PMDs with at least one active core (the paper's 'utilized PMDs').

        Derived once per snapshot: the fields it reads are frozen.
        """
        return frozenset(
            self.spec.pmd_of_core(core) for core in self.active_cores
        )

    def frequency_of_core(self, core_id: int) -> int:
        """Effective frequency of the PMD owning ``core_id``."""
        return self.pmd_frequencies_hz[self.spec.pmd_of_core(core_id)]

    def max_active_frequency(self) -> int:
        """Highest frequency among utilized PMDs (fmin when all idle)."""
        pmds = self.active_pmds
        if not pmds:
            return self.spec.fmin_hz
        return max(self.pmd_frequencies_hz[p] for p in pmds)


class Chip:
    """A live chip: spec + regulator + clocks + core occupancy."""

    def __init__(self, spec: ChipSpec, silicon_seed: int = 0):
        self.spec = spec
        self.silicon_seed = silicon_seed
        self.slimpro = SlimPro(
            nominal_mv=spec.nominal_voltage_mv,
            min_mv=spec.min_voltage_mv,
        )
        self.cppc = CppcController(spec)
        #: core_id -> occupant tag (opaque to the chip; usually a pid).
        self._occupants: Dict[int, object] = {}
        #: Busy cores per PMD, kept with ``_occupants``.
        self._pmd_busy: List[int] = [0] * spec.n_pmds
        #: Monotonic change counter of the occupancy map. Bumped only
        #: when the core->occupant mapping actually mutates, so callers
        #: (the simulator's incremental refresh) can detect placement
        #: changes without diffing the map.
        self.occupancy_version = 0

    # -- voltage / frequency knobs ------------------------------------------

    @property
    def voltage_mv(self) -> int:
        """Current rail voltage in mV."""
        return self.slimpro.voltage_mv

    def set_voltage(self, voltage_mv: float, time_s: float = 0.0) -> int:
        """Set the shared rail voltage (all cores)."""
        return self.slimpro.set_voltage(voltage_mv, time_s)

    def set_pmd_frequency(
        self, pmd_id: int, freq_hz: float, time_s: float = 0.0
    ) -> int:
        """Set one PMD's clock; returns the snapped setting."""
        return self.cppc.request(pmd_id, freq_hz, time_s)

    # -- occupancy ----------------------------------------------------------

    def occupy(self, core_id: int, occupant: object) -> None:
        """Mark a core as running a thread of ``occupant``."""
        if not 0 <= core_id < self.spec.n_cores:
            raise ConfigurationError(
                f"{self.spec.name}: core {core_id} out of range"
            )
        current = self._occupants.get(core_id)
        if current is not None and current != occupant:
            raise SchedulingError(
                f"core {core_id} already occupied by {current!r}"
            )
        if current is None:
            self.occupancy_version += 1
            self._pmd_busy[self.spec.pmd_of_core(core_id)] += 1
        self._occupants[core_id] = occupant

    def release_occupant(self, occupant: object) -> None:
        """Release every core held by ``occupant``."""
        released = [
            c for c, o in self._occupants.items() if o == occupant
        ]
        for core_id in released:
            del self._occupants[core_id]
            self._pmd_busy[self.spec.pmd_of_core(core_id)] -= 1
        if released:
            self.occupancy_version += 1

    def occupant_of(self, core_id: int) -> Optional[object]:
        """Occupant tag of a core, or ``None`` when idle."""
        return self._occupants.get(core_id)

    @property
    def active_cores(self) -> FrozenSet[int]:
        """Cores currently running a thread."""
        return frozenset(self._occupants)

    @property
    def idle_cores(self) -> Tuple[int, ...]:
        """Cores with no thread, sorted."""
        return tuple(
            c for c in range(self.spec.n_cores) if c not in self._occupants
        )

    @property
    def utilized_pmds(self) -> FrozenSet[int]:
        """PMDs with at least one active core."""
        return frozenset(
            pmd for pmd, busy in enumerate(self._pmd_busy) if busy
        )

    @property
    def pmd_busy_counts(self) -> Tuple[int, ...]:
        """Busy cores of every PMD, indexed by PMD."""
        return tuple(self._pmd_busy)

    def pmd_is_fully_idle(self, pmd_id: int) -> bool:
        """True when neither core of the PMD runs a thread."""
        if not 0 <= pmd_id < self.spec.n_pmds:
            raise ConfigurationError(
                f"{self.spec.name}: PMD {pmd_id} out of range"
            )
        return self._pmd_busy[pmd_id] == 0

    # -- snapshots -----------------------------------------------------------

    def state(self) -> ChipState:
        """Immutable snapshot of the current operating point."""
        return ChipState(
            spec=self.spec,
            voltage_mv=self.voltage_mv,
            pmd_frequencies_hz=self.cppc.frequencies(),
            active_cores=self.active_cores,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Chip {self.spec.name} @ {self.voltage_mv} mV, "
            f"{len(self._occupants)}/{self.spec.n_cores} cores active>"
        )
