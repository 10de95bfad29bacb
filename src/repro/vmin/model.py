"""Ground-truth safe-Vmin model of the simulated silicon.

The real chips' safe Vmin was measured by the paper's characterization
campaign (Section III); here the same relationships are encoded as the
*ground truth* that campaigns and the daemon re-discover:

    Vmin = base(frequency class, droop class)
           + attenuation(active cores) * (core offset + workload delta)

* ``base`` comes from lookup tables: Table II verbatim for X-Gene 3, and
  tables constructed for X-Gene 2 from the paper's factor decomposition
  (Fig. 10: clock division ~12 %, clock skipping ~3 %, core allocation
  ~4 %, workload ~1 % of nominal).
* the static/workload variation term **fades with core count** — the
  paper's central finding: with 4+ active cores the droop noise floor
  dominates and per-core/per-program differences all but vanish
  (Figs. 3 vs 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..errors import ConfigurationError
from ..platform.chip import Chip, ChipState
from ..platform.registry import model_for_spec
from ..platform.specs import ChipSpec, FrequencyClass
from ..units import HertzInt, Millivolts
from .droop import droop_bin_index, droop_ladder
from .variation import CoreVariationMap, make_variation_map


def variation_attenuation(n_active_cores: int) -> float:
    """How much of the static/workload Vmin variation survives.

    Single-core runs see the full ±30-40 mV variation (Fig. 4); at 3-4
    active cores at most ~10 mV survives (Fig. 3's "maximum difference is
    only 10 mV"); beyond that the droop floor makes workloads and cores
    indistinguishable.
    """
    if n_active_cores <= 1:
        return 1.0
    if n_active_cores == 2:
        return 0.6
    if n_active_cores <= 4:
        return 0.25
    return 0.08


@dataclass(frozen=True)
class VminBreakdown:
    """Decomposition of one safe-Vmin evaluation, for analysis and tests."""

    base_mv: float
    core_offset_mv: float
    workload_delta_mv: float
    attenuation: float
    total_mv: float
    freq_class: FrequencyClass
    droop_class: int


class VminModel:
    """Safe-Vmin ground truth for one silicon instance."""

    def __init__(
        self,
        spec: ChipSpec,
        silicon_seed: int = 0,
        variation: Optional[CoreVariationMap] = None,
    ):
        self.spec = spec
        self.variation = variation or make_variation_map(spec, silicon_seed)
        self._table = model_for_spec(spec).vmin_base_mv
        self._n_classes = len(droop_ladder(spec))

    @classmethod
    def for_chip(cls, chip: Chip) -> "VminModel":
        """Model matching a live chip's spec and silicon seed."""
        return cls(chip.spec, silicon_seed=chip.silicon_seed)

    def content_key(self) -> Dict[str, object]:
        """Stable payload identifying this ground-truth instance.

        Used by :mod:`repro.vmin.cache` for content-addressed campaign
        memoization: two models with the same base tables and the same
        per-core variation offsets are interchangeable, regardless of
        which seed produced the offsets.
        """
        return {
            "table": {
                freq_class.value: list(row)
                for freq_class, row in sorted(
                    self._table.items(), key=lambda item: item[0].value
                )
            },
            "offsets_mv": list(self.variation.offsets_mv),
        }

    # -- base table -----------------------------------------------------------

    def base_vmin_mv(
        self, freq_class: FrequencyClass, droop_class: int
    ) -> Millivolts:
        """Base Vmin before variation terms, from the lookup tables."""
        if not 0 <= droop_class < self._n_classes:
            raise ConfigurationError(
                f"{self.spec.name}: droop class {droop_class} out of range"
            )
        row = self._table.get(freq_class)
        if row is None:
            # Chips without the clock-division path treat DIVIDE as SKIP
            # (X-Gene 3, Section II.B).
            row = self._table[FrequencyClass.SKIP]
        return float(row[droop_class])

    # -- full evaluation ------------------------------------------------------

    def evaluate(
        self,
        freq_hz: HertzInt,
        active_cores: Iterable[int],
        workload_delta_mv: Millivolts = 0.0,
    ) -> VminBreakdown:
        """Safe Vmin with its decomposition for one configuration.

        ``freq_hz`` is the highest frequency among utilized PMDs (the rail
        must satisfy the most demanding clock domain).
        """
        cores = frozenset(active_cores)
        pmds = {self.spec.pmd_of_core(c) for c in cores}
        droop_class = droop_bin_index(self.spec, max(1, len(pmds)))
        freq_class = self.spec.frequency_class(
            self.spec.nearest_frequency(freq_hz)
        )
        base = self.base_vmin_mv(freq_class, droop_class)
        atten = variation_attenuation(len(cores))
        core_offset = self.variation.max_offset(cores)
        total = base + atten * (core_offset + workload_delta_mv)
        total = min(total, float(self.spec.nominal_voltage_mv))
        return VminBreakdown(
            base_mv=base,
            core_offset_mv=core_offset,
            workload_delta_mv=workload_delta_mv,
            attenuation=atten,
            total_mv=total,
            freq_class=freq_class,
            droop_class=droop_class,
        )

    def safe_vmin_mv(
        self,
        freq_hz: HertzInt,
        active_cores: Iterable[int],
        workload_delta_mv: Millivolts = 0.0,
    ) -> Millivolts:
        """Safe Vmin (mV) for one configuration."""
        return self.evaluate(freq_hz, active_cores, workload_delta_mv).total_mv

    def safe_vmin_for_state(
        self, state: ChipState, workload_delta_mv: Millivolts = 0.0
    ) -> Millivolts:
        """Safe Vmin for a live chip snapshot.

        Uses the highest frequency among utilized PMDs; a fully idle chip
        is evaluated at its configured clocks with no active cores'
        variation term.
        """
        cores = state.active_cores or frozenset({0})
        return self.safe_vmin_mv(
            state.max_active_frequency(), cores, workload_delta_mv
        )

    # -- factor decomposition (Fig. 10) ----------------------------------------

    def factor_decomposition(self) -> Dict[str, float]:
        """Vmin dependence of each factor as a fraction of nominal voltage.

        Reproduces Fig. 10: on X-Gene 2 roughly workload 1 %, core
        allocation 4 %, clock skipping 3 %, clock division 12 %.
        """
        nominal = float(self.spec.nominal_voltage_mv)
        top_class = self._n_classes - 1
        high = self._table[FrequencyClass.HIGH]
        skip = self._table.get(FrequencyClass.SKIP, high)
        divide = self._table.get(FrequencyClass.DIVIDE)

        allocation_span = high[top_class] - high[0]
        skipping_drop = high[top_class] - skip[top_class]
        divide_drop = (
            (skip[top_class] - divide[top_class]) if divide else 0.0
        )
        # Workload effect in multicore runs: the attenuated delta span.
        workload_span = (
            2 * _MULTICORE_WORKLOAD_DELTA_LIMIT_MV
            * variation_attenuation(4)
        )
        return {
            "workload": workload_span / nominal,
            "core_allocation": allocation_span / nominal,
            "clock_skipping": skipping_drop / nominal,
            "clock_division": divide_drop / nominal,
        }


#: Largest single-core workload Vmin delta, mV (Section III.A reports up
#: to ~40 mV total workload variation on X-Gene 2, i.e. about +/-20 mV).
_MULTICORE_WORKLOAD_DELTA_LIMIT_MV = 20.0
