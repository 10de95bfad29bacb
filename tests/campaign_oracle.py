"""Level-by-level analytic Vmin campaign: the reference for the sweeps.

:class:`repro.vmin.characterize.VminCampaign` runs every analytic
campaign as one batched :mod:`repro.kernels` sweep over the voltage
axis. This module keeps the protocol those sweeps replaced, one scalar
fault-model call per voltage level:

* :func:`run_level` — one level's expected outcome counts: failures
  rounded half to even and forced to at least one whenever pfail > 0,
  each failure type's share rounded the same way, the rounding residue
  added to the dominant type;
* :func:`measure_safe_vmin` — descend from nominal until a level
  records a failure (Section III.A);
* :func:`scan_unsafe_region` — from the safe Vmin down to the first
  level where every run fails, or the regulator floor (Section III.B);
* :func:`pfail_curve` / :func:`pfail_curves` — the scalar pfail per
  voltage (Fig. 5).

The oracle reads a campaign's spec, models, step and run counts, never
its cache or RNG. The kernel property tests and the cold
characterization benches compare the batched methods against it with
``==``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.vmin.characterize import (
    CharacterizationPoint,
    SafeVminResult,
    UnsafeScanResult,
    VminCampaign,
    VoltageStepRecord,
)
from repro.vmin.faults import OUTCOME_PASS


def _truth(
    campaign: VminCampaign, point: CharacterizationPoint
) -> Tuple[float, int]:
    breakdown = campaign.vmin_model.evaluate(
        point.freq_hz, point.cores, point.workload_delta_mv
    )
    return breakdown.total_mv, breakdown.droop_class


def run_level(
    campaign: VminCampaign,
    voltage_mv: int,
    true_vmin_mv: float,
    droop_class: int,
    runs: int,
) -> VoltageStepRecord:
    """Expected outcome counts of ``runs`` runs at one voltage level."""
    faults = campaign.fault_model
    pfail = faults.pfail(voltage_mv, true_vmin_mv, droop_class)
    outcomes: Dict[str, int] = {OUTCOME_PASS: runs}
    # Expected outcome mix, rounded: failures occur iff pfail > 0.
    failures = int(round(pfail * runs))
    if pfail > 0.0:
        failures = max(failures, 1)
    if failures:
        outcomes[OUTCOME_PASS] = runs - failures
        mix = faults.outcome_mix(voltage_mv, true_vmin_mv, droop_class)
        split = {
            tag: int(round(failures * share)) for tag, share in mix.items()
        }
        # Put rounding residue in the dominant failure type.
        split[max(mix, key=mix.get)] += failures - sum(split.values())
        outcomes.update(split)
    return VoltageStepRecord(
        voltage_mv=voltage_mv, runs=runs, pfail=pfail, outcomes=outcomes
    )


def measure_safe_vmin(
    campaign: VminCampaign, point: CharacterizationPoint
) -> SafeVminResult:
    """The analytic safe-Vmin search, one level at a time."""
    true_vmin, droop_class = _truth(campaign, point)
    spec = campaign.spec
    steps: List[VoltageStepRecord] = []
    safe = voltage = spec.nominal_voltage_mv
    while voltage >= spec.min_voltage_mv:
        record = run_level(
            campaign, voltage, true_vmin, droop_class, campaign.pass_runs
        )
        steps.append(record)
        if record.failures > 0:
            break
        safe = voltage
        voltage -= campaign.step_mv
    return SafeVminResult(
        point=point,
        safe_vmin_mv=safe,
        true_vmin_mv=true_vmin,
        steps=steps,
        runs_per_step=campaign.pass_runs,
    )


def scan_unsafe_region(
    campaign: VminCampaign,
    point: CharacterizationPoint,
    safe_vmin_mv: Optional[int] = None,
) -> UnsafeScanResult:
    """The analytic unsafe-region scan, one level at a time."""
    true_vmin, droop_class = _truth(campaign, point)
    if safe_vmin_mv is None:
        safe_vmin_mv = measure_safe_vmin(campaign, point).safe_vmin_mv
    spec = campaign.spec
    steps: List[VoltageStepRecord] = []
    voltage = safe_vmin_mv
    crash_voltage = spec.min_voltage_mv
    while voltage >= spec.min_voltage_mv:
        record = run_level(
            campaign, voltage, true_vmin, droop_class, campaign.scan_runs
        )
        steps.append(record)
        if record.pfail >= 1.0 or record.failures == record.runs:
            crash_voltage = voltage
            break
        voltage -= campaign.step_mv
    return UnsafeScanResult(
        point=point,
        safe_vmin_mv=safe_vmin_mv,
        crash_voltage_mv=crash_voltage,
        steps=steps,
    )


def pfail_curve(
    campaign: VminCampaign,
    point: CharacterizationPoint,
    voltages_mv: Iterable[int],
) -> Dict[int, float]:
    """The scalar cumulative failure probability per voltage."""
    true_vmin, droop_class = _truth(campaign, point)
    return {
        v: campaign.fault_model.pfail(v, true_vmin, droop_class)
        for v in (int(v) for v in voltages_mv)
    }


def pfail_curves(
    campaign: VminCampaign,
    points: Sequence[CharacterizationPoint],
    voltages_mv: Iterable[int],
) -> List[Dict[int, float]]:
    """:func:`pfail_curve` of every point."""
    voltages = [int(v) for v in voltages_mv]
    return [pfail_curve(campaign, point, voltages) for point in points]
