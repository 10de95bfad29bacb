"""Chip power model: dynamic, leakage, PMD overhead and uncore parts.

Power follows the standard CMOS decomposition the paper's energy
reasoning relies on:

* **dynamic** core power ``~ C * V^2 * f * activity`` — this is what
  voltage scaling (quadratic) and frequency scaling (linear) attack;
* **leakage** ``~ V^k`` per core — always on, since all cores share one
  rail and cannot be power-gated individually;
* **PMD overhead** — clock tree and L2 of each module, scaling with the
  module's own clock; fully-idle PMDs are clock-gated down to their
  floor, which is what makes *clustered* allocations cheaper for
  CPU-intensive programs (Fig. 7);
* **uncore** — L3, fabric and memory controllers. On X-Gene 3 the L3 is
  inside the PCP domain and scales with the rail voltage; on X-Gene 2 it
  is a separate domain at fixed voltage (Section II.A, Fig. 1).

Absolute watts are calibrated to the paper's reported operating points
(Table I TDPs; Tables III/IV average powers), but the *reproduction
claims* rest only on ratios between configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..errors import ConfigurationError
from ..platform.chip import ChipState
from ..platform.registry import model_for_spec
from ..platform.specs import ChipSpec
from ..units import Hertz, Millivolts, Watts


@dataclass(frozen=True)
class PowerParams:
    """Calibration constants of one chip's power model."""

    #: Uncore power (L3 + fabric + memory controllers) at nominal V, W.
    uncore_w: float
    #: One core's dynamic power at fmax, nominal V, activity 1.0, W.
    core_dyn_max_w: float
    #: One core's leakage at nominal V, W.
    core_leak_w: float
    #: Per-PMD overhead (clock tree + L2) at fmax, nominal V, W.
    pmd_overhead_w: float
    #: Whether the uncore shares the scaled rail (L3 in PCP domain).
    uncore_on_rail: bool
    #: Residual activity of an idle, clock-gated core.
    idle_activity: float = 0.06
    #: Leakage voltage exponent (leakage ~ V^k).
    leak_exponent: float = 2.0
    #: Uncore share that varies with memory-system utilization.
    uncore_dynamic_share: float = 0.4
    #: Residual fraction of clock-tree power on a fully idle (gated)
    #: PMD at a given clock: automatic clock gating is imperfect.
    gate_factor: float = 0.55
    #: Constant platform power visible to the meter but outside the
    #: scaled rail and clocks: DRAM refresh, SoC standby domain, VRM
    #: losses. Neither voltage nor frequency policies can touch it,
    #: which is what makes voltage savings sub-additive with placement
    #: in the paper's Tables III/IV.
    external_w: float = 0.0


@dataclass(frozen=True)
class PowerBreakdown:
    """One power evaluation split into its physical parts, in watts."""

    dynamic_w: float
    leakage_w: float
    pmd_overhead_w: float
    uncore_w: float
    external_w: float = 0.0

    @property
    def total_w(self) -> float:
        """Total measured platform power."""
        return (
            self.dynamic_w
            + self.leakage_w
            + self.pmd_overhead_w
            + self.uncore_w
            + self.external_w
        )


class PowerModel:
    """Evaluates chip power for an operating point and per-core loads."""

    def __init__(self, spec: ChipSpec, params: Optional[PowerParams] = None):
        self.spec = spec
        self.params = (
            params if params is not None else model_for_spec(spec).power
        )

    # -- component models ---------------------------------------------------

    def _v_ratio(self, voltage_mv: Millivolts) -> float:
        if voltage_mv <= 0:
            raise ConfigurationError("voltage must be positive")
        return voltage_mv / self.spec.nominal_voltage_mv

    def core_dynamic_w(
        self, freq_hz: Hertz, voltage_mv: Millivolts, activity: float
    ) -> Watts:
        """Dynamic power of one core: C * V^2 * f * activity."""
        if activity < 0:
            raise ConfigurationError("activity must be non-negative")
        return (
            self.params.core_dyn_max_w
            * self._v_ratio(voltage_mv) ** 2
            * (freq_hz / self.spec.fmax_hz)
            * activity
        )

    def core_leakage_w(self, voltage_mv: Millivolts) -> Watts:
        """Leakage of one core (always on; the rail is shared)."""
        return (
            self.params.core_leak_w
            * self._v_ratio(voltage_mv) ** self.params.leak_exponent
        )

    def pmd_overhead_w(
        self, freq_hz: Hertz, voltage_mv: Millivolts, gated: bool
    ) -> Watts:
        """Clock-tree + L2 overhead of one PMD.

        A fully idle PMD is clock-gated to a small floor; an active one
        pays the full overhead at its clock.
        """
        scale = self.params.gate_factor if gated else 1.0
        return (
            self.params.pmd_overhead_w
            * self._v_ratio(voltage_mv) ** 2
            * (freq_hz / self.spec.fmax_hz)
            * scale
        )

    def uncore_power_w(
        self, voltage_mv: Millivolts, memory_utilization: float
    ) -> Watts:
        """L3 + fabric + memory-controller power.

        Scales with rail voltage only when the L3 sits in the PCP domain
        (X-Gene 3); the utilization-dependent share models memory-system
        switching activity.
        """
        if not 0.0 <= memory_utilization <= 1.0:
            raise ConfigurationError(
                "memory_utilization must be in [0, 1]"
            )
        base = self.params.uncore_w
        share = self.params.uncore_dynamic_share
        level = (1.0 - share) + share * memory_utilization
        if self.params.uncore_on_rail:
            level *= self._v_ratio(voltage_mv) ** 2
        return base * level

    # -- whole-chip evaluation -------------------------------------------------

    def chip_power(
        self,
        state: ChipState,
        core_activity: Mapping[int, float],
        memory_utilization: float = 0.0,
        leakage_multiplier: float = 1.0,
    ) -> PowerBreakdown:
        """Chip power for a snapshot plus per-core effective activities.

        ``core_activity`` maps busy core ids to their effective switching
        activity (from :func:`repro.perf.model.execution_state`); cores
        missing from the map are idle and draw only their clock-gated
        floor. ``leakage_multiplier`` scales the leakage term for
        off-calibration junction temperatures
        (:meth:`repro.platform.thermal.ThermalModel.leakage_multiplier`).
        """
        if leakage_multiplier <= 0:
            raise ConfigurationError(
                "leakage multiplier must be positive"
            )
        spec = self.spec
        params = self.params
        voltage = state.voltage_mv
        active_pmds = state.active_pmds
        freqs = state.pmd_frequencies_hz
        # core_dynamic_w's C * V^2 prefix, evaluated once: the per-core
        # product below keeps its left-to-right order, so every term is
        # bit-identical to a core_dynamic_w call.
        dyn_scale = params.core_dyn_max_w * self._v_ratio(voltage) ** 2
        fmax = spec.fmax_hz
        per_pmd = spec.cores_per_pmd
        dynamic = 0.0
        for core_id in range(spec.n_cores):
            pmd_id = core_id // per_pmd
            if core_id in core_activity:
                activity = core_activity[core_id]
            else:
                # Idle core: residual clock toggling; much less when the
                # whole PMD is idle and its clock tree is gated.
                activity = params.idle_activity
                if pmd_id not in active_pmds:
                    activity *= params.gate_factor
            if activity < 0:
                raise ConfigurationError("activity must be non-negative")
            dynamic += dyn_scale * (freqs[pmd_id] / fmax) * activity
        leakage = (
            spec.n_cores * self.core_leakage_w(voltage)
            * leakage_multiplier
        )
        pmd_overhead = 0.0
        for pmd_id in range(spec.n_pmds):
            freq = state.pmd_frequencies_hz[pmd_id]
            pmd_overhead += self.pmd_overhead_w(
                freq, voltage, gated=pmd_id not in active_pmds
            )
        uncore = self.uncore_power_w(voltage, memory_utilization)
        return PowerBreakdown(
            dynamic_w=dynamic,
            leakage_w=leakage,
            pmd_overhead_w=pmd_overhead,
            uncore_w=uncore,
            external_w=self.params.external_w,
        )

    def idle_power_w(self, state: ChipState) -> Watts:
        """Chip power with every core idle at the snapshot's V/F point."""
        return self.chip_power(state, {}, 0.0).total_w

    def max_power_w(self) -> Watts:
        """All-cores-busy power at nominal V, fmax, activity 1 (TDP-ish)."""
        spec = self.spec
        state = ChipState(
            spec=spec,
            voltage_mv=spec.nominal_voltage_mv,
            pmd_frequencies_hz=(spec.fmax_hz,) * spec.n_pmds,
            active_cores=frozenset(range(spec.n_cores)),
        )
        loads = {core: 1.0 for core in range(spec.n_cores)}
        return self.chip_power(state, loads, 1.0).total_w
