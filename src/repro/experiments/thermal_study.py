"""Thermal-margin study (environment extension).

The paper characterizes its machines at one operating temperature;
data-centre inlets and load swings move the junction tens of degrees.
This study runs the Optimal daemon with the thermal model enabled across
ambient temperatures and asks:

* how hot does the chip get, and how much extra leakage does that cost?
* does a policy table characterized at the calibration temperature
  still keep the rail safe when the junction runs hotter — and if not,
  how much thermal guard closes the gap?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..analysis.tables import format_table
from ..policies.daemon import OnlineMonitoringDaemon
from ..core.policy import VminPolicyTable
from ..platform.chip import Chip
from ..platform.specs import get_spec
from ..platform.thermal import (
    VMIN_TEMP_SENSITIVITY_MV_PER_C,
    ThermalModel,
)
from ..sim.system import ServerSystem, SimLane
from ..workloads.generator import ServerWorkloadGenerator


@dataclass(frozen=True)
class ThermalRow:
    """One ambient-temperature operating point."""

    ambient_c: float
    peak_junction_c: float
    mean_junction_c: float
    energy_j: float
    violations: int
    #: Thermal guard (mV) that would cover the observed peak.
    guard_needed_mv: float


@dataclass
class ThermalStudyResult:
    """The ambient sweep."""

    platform: str
    calibration_c: float
    rows: List[ThermalRow] = field(default_factory=list)

    def energy_increase_pct(self) -> float:
        """Energy growth from the coolest to the hottest ambient."""
        first, last = self.rows[0], self.rows[-1]
        return 100.0 * (last.energy_j - first.energy_j) / first.energy_j

    def first_unsafe_ambient_c(self) -> Optional[float]:
        """Coolest ambient at which the unguarded table violated."""
        for row in self.rows:
            if row.violations > 0:
                return row.ambient_c
        return None

    def format(self) -> str:
        """Render the sweep."""
        return format_table(
            (
                "ambient(C)",
                "peak Tj(C)",
                "mean Tj(C)",
                "energy(J)",
                "violations",
                "guard needed(mV)",
            ),
            [
                (
                    r.ambient_c,
                    round(r.peak_junction_c, 1),
                    round(r.mean_junction_c, 1),
                    round(r.energy_j, 1),
                    r.violations,
                    round(r.guard_needed_mv, 1),
                )
                for r in self.rows
            ],
            title=(
                f"Thermal-margin study ({self.platform}, table "
                f"characterized at {self.calibration_c:.0f} C)"
            ),
        )


def run(
    platform: str = "xgene3",
    ambients_c: Sequence[float] = (15.0, 25.0, 45.0, 65.0, 75.0, 85.0),
    duration_s: float = 900.0,
    seed: int = 9,
) -> ThermalStudyResult:
    """Sweep ambient temperature under the Optimal daemon."""
    spec = get_spec(platform)
    policy = VminPolicyTable.from_characterization(spec)
    workload = ServerWorkloadGenerator(
        max_cores=spec.n_cores, seed=seed
    ).generate(duration_s)
    thermal_defaults = ThermalModel(spec)
    result = ThermalStudyResult(
        platform=spec.name,
        calibration_c=thermal_defaults.params.calibration_c,
    )
    # The ambient reaches only leakage, temperature and the audit, so
    # every ambient shares one replay's decisions: one lane each.
    lanes = [
        SimLane(thermal=ThermalModel(spec, ambient_c=ambient))
        for ambient in ambients_c
    ]
    ServerSystem(
        Chip(spec),
        workload,
        OnlineMonitoringDaemon(spec, policy=policy),
        trace_period_s=None,
        lanes=lanes,
    ).run()
    for ambient, lane in zip(ambients_c, lanes):
        temps = [t for _, t in lane.temperature_series] or [ambient]
        peak = max(temps)
        result.rows.append(
            ThermalRow(
                ambient_c=ambient,
                peak_junction_c=peak,
                mean_junction_c=sum(temps) / len(temps),
                energy_j=lane.meter.energy_j,
                violations=len(lane.violations),
                guard_needed_mv=max(
                    0.0,
                    VMIN_TEMP_SENSITIVITY_MV_PER_C
                    * (peak - result.calibration_c),
                ),
            )
        )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> ThermalStudyResult:
    """The thermal sweep."""
    return run(platform, duration_s=duration_s)
