"""The daemon's safe-Vmin knowledge: a Table II-style policy table.

The paper deliberately avoids predictive Vmin models ("the prediction
schemes ... are error-prone and can lead to system failures") and instead
drives the rail from a *measured* table: for each droop-magnitude class
(utilized-PMD count) and frequency class, the worst safe Vmin observed
across the whole characterization campaign. The daemon then always moves
the rail through these conservative levels with the fail-safe protocol of
Fig. 13.

:class:`VminPolicyTable` builds that table the same way — by taking the
worst case over thread counts, allocations and benchmarks of the
characterization set against the (simulated) silicon — and answers the
single question the daemon asks: *given these utilized PMDs and this top
frequency, what is the lowest safe rail setting?*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..allocation import Allocation, cores_for
from ..errors import ConfigurationError
from ..kernels.vmin import safe_vmin_matrix
from ..platform.specs import ChipSpec, FrequencyClass
from ..vmin.droop import droop_bin_index, droop_ladder
from ..vmin.model import VminModel
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import characterization_set

#: Extra margin above the measured worst case, in mV (one regulator step).
DEFAULT_GUARD_MV = 5


@dataclass(frozen=True)
class PolicyEntry:
    """One row of the daemon's policy table."""

    freq_class: FrequencyClass
    droop_class: int
    vmin_mv: int


class VminPolicyTable:
    """Measured worst-case safe Vmin per (frequency class, droop class).

    A table never changes after construction, so
    :meth:`safe_voltage_mv` keeps each answer it gives.
    """

    def __init__(
        self,
        spec: ChipSpec,
        entries: Dict[Tuple[FrequencyClass, int], int],
        guard_mv: int = DEFAULT_GUARD_MV,
    ):
        if guard_mv < 0:
            raise ConfigurationError("guard_mv must be non-negative")
        self.spec = spec
        self._guard_mv = guard_mv
        self._entries = dict(entries)
        #: (utilized PMDs, clock) -> :meth:`safe_voltage_mv`'s answer.
        self._levels: Dict[Tuple[int, float], int] = {}
        self._n_classes = len(droop_ladder(spec))
        for freq_class in self._required_freq_classes(spec):
            for droop_class in range(self._n_classes):
                if (freq_class, droop_class) not in self._entries:
                    raise ConfigurationError(
                        f"policy table missing entry "
                        f"({freq_class.value}, {droop_class})"
                    )

    @staticmethod
    def _required_freq_classes(spec: ChipSpec) -> Tuple[FrequencyClass, ...]:
        classes = [FrequencyClass.HIGH, FrequencyClass.SKIP]
        if spec.clock_division_below_half:
            classes.append(FrequencyClass.DIVIDE)
        return tuple(classes)

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_characterization(
        cls,
        spec: ChipSpec,
        vmin_model: Optional[VminModel] = None,
        benchmarks: Optional[Iterable[BenchmarkProfile]] = None,
        step_mv: int = 10,
        guard_mv: int = DEFAULT_GUARD_MV,
    ) -> "VminPolicyTable":
        """Build the table from a worst-case characterization sweep.

        Every (thread count, allocation) pair mapping to a droop class is
        evaluated for every benchmark of the characterization set; the
        table keeps the worst measured Vmin per class, rounded up to the
        campaign's voltage step — exactly the data reduction behind the
        paper's Table II.
        """
        if step_mv <= 0:
            raise ConfigurationError("step_mv must be positive")
        model = vmin_model or VminModel(spec)
        pool = list(benchmarks) if benchmarks else characterization_set()
        if not pool:
            raise ConfigurationError("benchmark pool is empty")
        configs = cls._class_configs(spec)
        # One batched (core set x workload delta) grid per representative
        # frequency replaces the scalar triple loop; the per-class worst
        # case is a slice reduction over the same values.
        class_slices: Dict[int, Tuple[int, int]] = {}
        all_sets: List[Tuple[int, ...]] = []
        for droop_class in sorted(configs):
            start = len(all_sets)
            all_sets.extend(configs[droop_class])
            class_slices[droop_class] = (start, len(all_sets))
        deltas = [profile.vmin_delta_mv for profile in pool]
        entries: Dict[Tuple[FrequencyClass, int], int] = {}
        for freq_class, freq_hz in cls._freq_class_reps(spec):
            matrix = safe_vmin_matrix(model, freq_hz, all_sets, deltas)
            floor = 0
            for droop_class in sorted(configs):
                lo, hi = class_slices[droop_class]
                worst = max(0.0, float(matrix[lo:hi].max()))
                stepped = int(-(-worst // step_mv) * step_mv)  # ceil to step
                # Enforce monotonicity across droop classes: few-thread
                # configurations in a mild class can measure *above* a
                # heavier class (full single-core variation vs the
                # attenuated multicore one), but the fail-safe
                # transition logic needs "more PMDs => never lower".
                floor = max(floor, stepped)
                entries[(freq_class, droop_class)] = min(
                    floor, spec.nominal_voltage_mv
                )
        return cls(spec, entries, guard_mv=guard_mv)

    @staticmethod
    def _freq_class_reps(
        spec: ChipSpec,
    ) -> List[Tuple[FrequencyClass, int]]:
        """One representative frequency per Vmin-relevant class."""
        reps: Dict[FrequencyClass, int] = {}
        for freq in spec.frequency_steps():
            fclass = spec.frequency_class(freq)
            # Keep the highest frequency of each class: worst case.
            reps[fclass] = max(reps.get(fclass, 0), freq)
        return sorted(reps.items(), key=lambda item: item[1], reverse=True)

    @staticmethod
    def _class_configs(
        spec: ChipSpec,
    ) -> Dict[int, List[Tuple[int, ...]]]:
        """Core sets per droop class, over thread counts and allocations."""
        configs: Dict[int, List[Tuple[int, ...]]] = {}
        for nthreads in range(1, spec.n_cores + 1):
            for allocation in (Allocation.CLUSTERED, Allocation.SPREADED):
                cores = cores_for(spec, nthreads, allocation)
                pmds = {spec.pmd_of_core(c) for c in cores}
                droop_class = droop_bin_index(spec, len(pmds))
                configs.setdefault(droop_class, []).append(cores)
        return configs

    # -- queries -------------------------------------------------------------------

    @property
    def guard_mv(self) -> int:
        """Margin added above every measured entry, mV."""
        return self._guard_mv

    def entry(
        self, freq_class: FrequencyClass, droop_class: int
    ) -> PolicyEntry:
        """Raw table entry (without the guard margin)."""
        key = (freq_class, droop_class)
        if key not in self._entries:
            # Chips without the division path fold DIVIDE into SKIP.
            key = (FrequencyClass.SKIP, droop_class)
        if key not in self._entries:
            raise ConfigurationError(
                f"no policy entry for {freq_class.value}/{droop_class}"
            )
        return PolicyEntry(
            freq_class=key[0],
            droop_class=droop_class,
            vmin_mv=self._entries[key],
        )

    def safe_voltage_mv(self, utilized_pmds: int, freq_hz: int) -> int:
        """Lowest rail setting the daemon may use for a configuration.

        ``utilized_pmds`` counts PMDs with at least one running thread;
        ``freq_hz`` is the highest clock among them. The guard margin is
        included; results never exceed the nominal voltage.
        """
        key = (utilized_pmds, freq_hz)
        level = self._levels.get(key)
        if level is None:
            droop_class = droop_bin_index(self.spec, max(1, utilized_pmds))
            freq_class = self.spec.frequency_class(
                self.spec.nearest_frequency(freq_hz)
            )
            level = min(
                self.entry(freq_class, droop_class).vmin_mv + self._guard_mv,
                self.spec.nominal_voltage_mv,
            )
            self._levels[key] = level
        return level

    def rows(self) -> List[PolicyEntry]:
        """All entries, for rendering Table II."""
        return [
            PolicyEntry(fc, dc, vmin)
            for (fc, dc), vmin in sorted(
                self._entries.items(),
                key=lambda item: (item[0][1], item[0][0].value),
            )
        ]
