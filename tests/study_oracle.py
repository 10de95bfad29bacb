"""One replay per study point: the reference for the lane-sharing studies.

:func:`repro.experiments.variation_study.run` replays each distinct
policy table once, with one lane per (die, table) point, and
:func:`repro.experiments.thermal_study.run` replays its workload once,
with one lane per ambient. The functions here keep the flow those
replaced: a fresh chip, daemon and one-lane
:class:`~repro.sim.system.ServerSystem` for every point, traced as the
default system is. The tests compare the two results with ``==``.
"""

from __future__ import annotations

from typing import Sequence

from repro.allocation import Allocation, cores_for
from repro.core.policy import VminPolicyTable
from repro.experiments.thermal_study import ThermalRow, ThermalStudyResult
from repro.experiments.variation_study import (
    ChipRecord,
    VariationStudyResult,
    _worst_single_core_vmin,
)
from repro.platform.chip import Chip
from repro.platform.specs import ChipSpec, get_spec
from repro.platform.thermal import VMIN_TEMP_SENSITIVITY_MV_PER_C, ThermalModel
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.sim.system import ServerSystem, SimLane
from repro.vmin.model import VminModel
from repro.workloads.generator import ServerWorkloadGenerator
from repro.workloads.suites import characterization_set


def _daemon_violations(
    spec: ChipSpec,
    silicon_seed: int,
    policy: VminPolicyTable,
    duration_s: float,
    workload_seed: int,
) -> int:
    workload = ServerWorkloadGenerator(
        max_cores=spec.n_cores, seed=workload_seed
    ).generate(duration_s)
    chip = Chip(spec, silicon_seed=silicon_seed)
    daemon = OnlineMonitoringDaemon(spec, policy=policy)
    result = ServerSystem(chip, workload, daemon).run()
    return len(result.violations)


def variation_per_point(
    platform: str,
    seeds: Sequence[int],
    duration_s: float,
    workload_seed: int = 3,
) -> VariationStudyResult:
    """The variation study with one replay per (die, table) point."""
    spec = get_spec(platform)
    models = {seed: VminModel(spec, silicon_seed=seed) for seed in seeds}
    golden_seed = min(
        seeds, key=lambda s: _worst_single_core_vmin(spec, models[s])
    )
    golden_policy = VminPolicyTable.from_characterization(
        spec, vmin_model=models[golden_seed]
    )
    result = VariationStudyResult(platform=spec.name)
    for seed in seeds:
        model = models[seed]
        own_policy = VminPolicyTable.from_characterization(
            spec, vmin_model=model
        )
        worst_profile = max(
            characterization_set(), key=lambda p: p.vmin_delta_mv
        )
        full_chip = model.safe_vmin_mv(
            spec.fmax_hz,
            cores_for(spec, spec.n_cores, Allocation.CLUSTERED),
            worst_profile.vmin_delta_mv,
        )
        result.records.append(
            ChipRecord(
                silicon_seed=seed,
                single_core_vmin_mv=_worst_single_core_vmin(spec, model),
                full_chip_vmin_mv=full_chip,
                own_table_violations=_daemon_violations(
                    spec, seed, own_policy, duration_s, workload_seed
                ),
                foreign_table_violations=_daemon_violations(
                    spec, seed, golden_policy, duration_s, workload_seed
                ),
            )
        )
    return result


def thermal_per_point(
    platform: str,
    ambients_c: Sequence[float],
    duration_s: float,
    seed: int = 9,
) -> ThermalStudyResult:
    """The thermal study with one replay per ambient."""
    spec = get_spec(platform)
    policy = VminPolicyTable.from_characterization(spec)
    workload = ServerWorkloadGenerator(
        max_cores=spec.n_cores, seed=seed
    ).generate(duration_s)
    result = ThermalStudyResult(
        platform=spec.name,
        calibration_c=ThermalModel(spec).params.calibration_c,
    )
    for ambient in ambients_c:
        lane = SimLane(thermal=ThermalModel(spec, ambient_c=ambient))
        daemon = OnlineMonitoringDaemon(spec, policy=policy)
        outcome = ServerSystem(
            Chip(spec), workload, daemon, lanes=[lane]
        ).run()
        temps = [t for _, t in lane.temperature_series] or [ambient]
        peak = max(temps)
        result.rows.append(
            ThermalRow(
                ambient_c=ambient,
                peak_junction_c=peak,
                mean_junction_c=sum(temps) / len(temps),
                energy_j=outcome.energy_j,
                violations=len(outcome.violations),
                guard_needed_mv=max(
                    0.0,
                    VMIN_TEMP_SENSITIVITY_MV_PER_C
                    * (peak - result.calibration_c),
                ),
            )
        )
    return result
