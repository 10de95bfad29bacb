"""Figure 5 — cumulative probability of failure below the safe Vmin.

For each frequency / core-allocation / thread-scaling option, the
25-benchmark-average pfail is reported at every voltage step from the
nominal level down to complete failure. Two observations reproduce:

* max-threads and spreaded-half-threads curves are virtually identical
  (same utilized PMDs, same droop class);
* clustered-half-threads shifts left (lower Vmin, lower pfail at a given
  voltage) despite the same clock frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..allocation import Allocation
from ..analysis.tables import format_table
from ..kernels.faults import pfail_grid
from ..kernels.vmin import evaluate_grid
from ..platform.specs import get_spec
from ..vmin.characterize import VminCampaign
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import characterization_set


@dataclass(frozen=True)
class PfailCurve:
    """Average pfail-vs-voltage curve of one configuration."""

    label: str
    nthreads: int
    allocation: Allocation
    freq_hz: int
    #: voltage (mV) -> mean pfail over the benchmark set.
    points: Tuple[Tuple[int, float], ...]

    def pfail_at(self, voltage_mv: int) -> float:
        """Mean pfail at one voltage (exact match required)."""
        for volt, pfail in self.points:
            if volt == voltage_mv:
                return pfail
        raise KeyError(voltage_mv)

    def safe_vmin_mv(self) -> int:
        """Lowest voltage with pfail == 0 (the last safe step)."""
        safe = [volt for volt, pfail in self.points if pfail <= 0.0]
        if not safe:
            raise ValueError(f"{self.label}: no safe step in curve")
        return min(safe)


@dataclass
class Fig5Result:
    """All pfail curves of one platform."""

    platform: str
    curves: List[PfailCurve] = field(default_factory=list)

    def curve(self, label: str) -> PfailCurve:
        """Curve by label, e.g. ``16T(spreaded)``."""
        for curve in self.curves:
            if curve.label == label:
                return curve
        raise KeyError(label)

    def format(self) -> str:
        """Render all curves as voltage/pfail columns."""
        rows = []
        for curve in self.curves:
            for volt, pfail in curve.points:
                if pfail > 0 or volt == curve.safe_vmin_mv():
                    rows.append((curve.label, volt, round(pfail, 4)))
        return format_table(
            ("configuration", "voltage(mV)", "pfail"),
            rows,
            title=f"Figure 5 - probability of failure ({self.platform})",
        )


def default_configs(spec) -> List[Tuple[int, Allocation]]:
    """The paper's Fig. 5 configurations for a chip."""
    full = spec.n_cores
    half = spec.n_cores // 2
    return [
        (full, Allocation.CLUSTERED),
        (half, Allocation.SPREADED),
        (half, Allocation.CLUSTERED),
        (half // 2, Allocation.SPREADED),
        (half // 2, Allocation.CLUSTERED),
    ]


def run(
    platform: str = "xgene3",
    freq_hz: Optional[int] = None,
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
    step_mv: int = 10,
    silicon_seed: int = 0,
) -> Fig5Result:
    """Compute the 25-benchmark-average pfail curves."""
    spec = get_spec(platform)
    freq = spec.nearest_frequency(freq_hz if freq_hz else spec.fmax_hz)
    pool = list(benchmarks) if benchmarks else characterization_set()
    campaign = VminCampaign(spec, step_mv=step_mv, seed=silicon_seed)
    result = Fig5Result(platform=spec.name)
    voltages = list(
        range(spec.nominal_voltage_mv, spec.min_voltage_mv - 1, -step_mv)
    )
    volt_axis = np.asarray(voltages, dtype=np.int64)
    for nthreads, allocation in default_configs(spec):
        # One (benchmark x voltage) kernel sweep per configuration; the
        # benchmark-axis accumulation stays sequential so the averages
        # match the scalar per-profile summation bit for bit.
        grid_points = [
            campaign.point(
                profile.name,
                nthreads,
                allocation,
                freq,
                workload_delta_mv=profile.vmin_delta_mv,
            )
            for profile in pool
        ]
        grid = evaluate_grid(
            campaign.vmin_model,
            [p.freq_hz for p in grid_points],
            [p.cores for p in grid_points],
            [p.workload_delta_mv for p in grid_points],
        )
        pfails = pfail_grid(
            campaign.fault_model,
            volt_axis[None, :],
            grid.total_mv[:, None],
            grid.droop_class[:, None],
        )
        sums = np.zeros(len(voltages), dtype=np.float64)
        for row in range(pfails.shape[0]):
            sums = sums + pfails[row]
        points = tuple(
            (volt, float(sums[i] / len(pool)))
            for i, volt in enumerate(voltages)
        )
        label = (
            f"{nthreads}T"
            if nthreads == spec.n_cores
            else f"{nthreads}T({allocation.value})"
        )
        result.curves.append(
            PfailCurve(
                label=label,
                nthreads=nthreads,
                allocation=allocation,
                freq_hz=freq,
                points=points,
            )
        )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig5Result:
    """The Fig. 5 pfail curves for one platform."""
    return run(platform)
