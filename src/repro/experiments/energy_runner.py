"""Analytic single-job measurement: one benchmark at one operating point.

The paper's Section V measurements (Figs. 7, 11, 12) run one benchmark at
a time on an otherwise idle machine, at a chosen thread count, core
allocation, frequency and voltage, and record execution time and energy.
On an idle machine the fluid model is closed-form, so these measurements
need no event simulation: duration comes straight from the performance
model and power from one evaluation of the power model.

Voltage modes:

* ``nominal`` — the stock rail (how Fig. 7's allocation comparison runs);
* ``safe`` — the configuration's characterized safe Vmin, quantized to
  the campaign's 10 mV step (how the Figs. 11/12 energy study runs:
  every V/f combination is taken at its own safe Vmin).

SPEC-style replicated runs report a per-instance normalized energy next
to the raw one (Section II.B's fairness rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..allocation import Allocation, cores_for
from ..errors import ConfigurationError
from ..kernels.power import chip_power_grid
from ..kernels.vmin import safe_vmin_grid
from ..perf.contention import (
    bandwidth_utilization,
    contention_factor,
)
from ..perf.model import bandwidth_demand_gbs, execution_state
from ..platform.specs import ChipSpec
from ..power.energy import ed2p
from ..power.model import PowerModel
from ..vmin.model import VminModel
from ..workloads.profiles import BenchmarkProfile

#: Voltage-sweep step of the characterization campaigns, mV.
CAMPAIGN_STEP_MV = 10


@dataclass(frozen=True)
class RunMeasurement:
    """Time/energy measurement of one benchmark configuration."""

    benchmark: str
    nthreads: int
    allocation: Allocation
    freq_hz: int
    voltage_mv: int
    duration_s: float
    energy_j: float
    #: Energy normalized per instance for replicated (SPEC) runs;
    #: equals ``energy_j`` for parallel programs.
    normalized_energy_j: float

    @property
    def ed2p(self) -> float:
        """ED2P on the normalized energy (the paper's Fig. 12 metric)."""
        return ed2p(self.normalized_energy_j, self.duration_s)


class EnergyRunner:
    """Measures benchmarks on an idle machine at fixed operating points."""

    def __init__(
        self,
        spec: ChipSpec,
        power_model: Optional[PowerModel] = None,
        vmin_model: Optional[VminModel] = None,
    ):
        self.spec = spec
        self.power_model = power_model or PowerModel(spec)
        self.vmin_model = vmin_model or VminModel(spec)

    def safe_voltage_mv(
        self,
        profile: BenchmarkProfile,
        nthreads: int,
        allocation: Allocation,
        freq_hz: int,
    ) -> int:
        """Characterized safe Vmin of the configuration, stepped up.

        This is what the campaign of Section III.A would report: the true
        Vmin rounded up to the 10 mV sweep step.
        """
        return self.safe_voltages_mv(
            profile, [(nthreads, allocation, freq_hz)]
        )[0]

    def safe_voltages_mv(
        self,
        profile: BenchmarkProfile,
        configs: Sequence[Tuple[int, Allocation, int]],
    ) -> List[int]:
        """Batched :meth:`safe_voltage_mv` over (threads, alloc, freq).

        One batched kernel evaluation of the Vmin model covers every
        configuration.
        """
        cores = [
            cores_for(self.spec, nthreads, allocation)
            for nthreads, allocation, _ in configs
        ]
        true_vmins = safe_vmin_grid(
            self.vmin_model,
            [self.spec.nearest_frequency(freq) for _, _, freq in configs],
            cores,
            profile.vmin_delta_mv,
        )
        return [
            min(
                int(-(-float(vmin) // CAMPAIGN_STEP_MV) * CAMPAIGN_STEP_MV),
                self.spec.nominal_voltage_mv,
            )
            for vmin in true_vmins
        ]

    def measure(
        self,
        profile: BenchmarkProfile,
        nthreads: int,
        allocation: Allocation,
        freq_hz: Optional[int] = None,
        voltage: str = "safe",
    ) -> RunMeasurement:
        """Measure one configuration on an otherwise idle machine."""
        return self.measure_batch(
            profile, [(nthreads, allocation, freq_hz)], voltage=voltage
        )[0]

    def measure_batch(
        self,
        profile: BenchmarkProfile,
        configs: Sequence[Tuple[int, Allocation, Optional[int]]],
        voltage: str = "safe",
    ) -> List[RunMeasurement]:
        """Measure many configurations of one benchmark in one sweep.

        ``configs`` holds ``(nthreads, allocation, freq_hz)`` tuples
        (``freq_hz=None`` means fmax). Safe voltages resolve through the
        batched characterization lookup and all power evaluations run as
        one :func:`~repro.kernels.power.chip_power_grid` call; every
        measurement is bit-identical to the scalar per-point path.

        ``voltage`` is ``"safe"``, ``"nominal"``, or any policy registry
        key — the analytic sweep has no event loop to run a live policy
        in, so a key resolves to the policy's declared idle-machine rail
        mode (:func:`~repro.policies.registry.rail_mode`).
        """
        if voltage not in ("safe", "nominal"):
            from ..policies.registry import rail_mode

            try:
                voltage = rail_mode(voltage)
            except ConfigurationError:
                raise ConfigurationError(
                    f"unknown voltage mode {voltage!r}: expected 'safe', "
                    "'nominal' or a policy registry key with an "
                    "idle-machine rail mode"
                ) from None
        prepared = []
        for nthreads, allocation, freq_hz in configs:
            freq = self.spec.nearest_frequency(
                freq_hz if freq_hz is not None else self.spec.fmax_hz
            )
            cores = cores_for(self.spec, nthreads, allocation)
            pmds = sorted({self.spec.pmd_of_core(c) for c in cores})
            # A thread shares its PMD when any PMD holds two of the job's
            # threads (clustered runs, or spreaded runs past n_pmds
            # threads).
            shares = any(
                sum(1 for c in cores if self.spec.pmd_of_core(c) == p) > 1
                for p in pmds
            )
            demand = bandwidth_demand_gbs(profile, self.spec, freq)
            demands = [demand] * nthreads
            crowd = contention_factor(self.spec, demands)
            exec_state = execution_state(
                profile,
                self.spec,
                freq,
                nthreads=nthreads,
                shares_pmd=shares,
                contention=crowd,
            )
            prepared.append(
                (
                    nthreads,
                    allocation,
                    freq,
                    cores,
                    exec_state,
                    bandwidth_utilization(self.spec, demands),
                )
            )
        if voltage == "nominal":
            voltages: List[int] = [
                self.spec.nominal_voltage_mv for _ in prepared
            ]
        else:
            voltages = self.safe_voltages_mv(
                profile,
                [
                    (nthreads, allocation, freq)
                    for nthreads, allocation, freq, _, _, _ in prepared
                ],
            )
        # The characterization protocol sets the *chip-wide* frequency
        # for a run (Section II.B); idle PMDs stay at the test clock and
        # only benefit from automatic clock gating in the power model.
        power_grid = chip_power_grid(
            self.power_model,
            voltages,
            [freq for _, _, freq, _, _, _ in prepared],
            [state.effective_activity for _, _, _, _, state, _ in prepared],
            [cores for _, _, _, cores, _, _ in prepared],
            [mem for _, _, _, _, _, mem in prepared],
        )
        measurements: List[RunMeasurement] = []
        for i, (nthreads, allocation, freq, cores, exec_state, _) in enumerate(
            prepared
        ):
            power = float(power_grid.total_w[i])
            duration = exec_state.duration_s
            energy = power * duration
            normalized = energy if profile.parallel else energy / nthreads
            measurements.append(
                RunMeasurement(
                    benchmark=profile.name,
                    nthreads=nthreads,
                    allocation=allocation,
                    freq_hz=freq,
                    voltage_mv=voltages[i],
                    duration_s=duration,
                    energy_j=energy,
                    normalized_energy_j=normalized,
                )
            )
        return measurements

    def thread_grid(self) -> Dict[str, int]:
        """The paper's max/half/quarter thread options (Section II.B)."""
        return {
            "max": self.spec.n_cores,
            "half": self.spec.n_cores // 2,
            "quarter": self.spec.n_cores // 4,
        }

    def frequency_grid(self) -> Dict[str, int]:
        """The per-chip frequency set the paper reports (Section II.B).

        X-Gene 2: 2.4, 1.2 and 0.9 GHz (the three distinct Vmin
        behaviours); X-Gene 3: 3.0 and 1.5 GHz.
        """
        grid = {"max": self.spec.fmax_hz, "half": self.spec.half_frequency_hz}
        if self.spec.clock_division_below_half:
            below = [
                f
                for f in self.spec.frequency_steps()
                if f < self.spec.half_frequency_hz
            ]
            if below:
                grid["divide"] = max(below)
        return grid
