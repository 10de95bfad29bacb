"""Chip-to-chip variation study (extension of the paper's Section III).

The paper reports the variability of its two specific chips; this study
draws a population of silicon instances (different ``silicon_seed``
values) and asks the questions a fleet operator would:

* how does the safe Vmin of key configurations spread across chips?
* is a policy table characterized **on the deployed chip** always safe?
* what happens when a table characterized on one chip is deployed on
  another — the shortcut the paper's per-chip methodology avoids?

The last question quantifies why the paper characterizes each machine
individually: static core variation differs per die, so a foreign table
can sit below a sensitive chip's true Vmin in the low-PMD classes where
variation is not yet attenuated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..allocation import Allocation, cores_for
from ..analysis.tables import format_table
from ..core.policy import PolicyEntry, VminPolicyTable
from ..platform.chip import Chip
from ..platform.specs import ChipSpec, get_spec
from ..sim.system import ServerSystem, SimLane
from ..policies.daemon import OnlineMonitoringDaemon
from ..vmin.model import VminModel
from ..workloads.generator import ServerWorkloadGenerator
from ..workloads.suites import characterization_set


@dataclass(frozen=True)
class ChipRecord:
    """Per-silicon-instance measurements."""

    silicon_seed: int
    #: Worst-case single-core safe Vmin at fmax, mV.
    single_core_vmin_mv: float
    #: Full-chip safe Vmin at fmax, mV.
    full_chip_vmin_mv: float
    #: Violations when running the daemon with this chip's own table.
    own_table_violations: int
    #: Violations when running with the golden die's table (the most
    #: robust chip of the population — the worst possible donor).
    foreign_table_violations: int


@dataclass
class VariationStudyResult:
    """Across-population summary."""

    platform: str
    records: List[ChipRecord] = field(default_factory=list)

    def single_core_spread_mv(self) -> float:
        """Population spread of the worst single-core Vmin."""
        values = [r.single_core_vmin_mv for r in self.records]
        return max(values) - min(values)

    def full_chip_spread_mv(self) -> float:
        """Population spread of the full-chip Vmin.

        Should be far smaller than the single-core spread: the paper's
        attenuation argument applies across chips too.
        """
        values = [r.full_chip_vmin_mv for r in self.records]
        return max(values) - min(values)

    def own_table_always_safe(self) -> bool:
        """True when per-chip characterization never violates."""
        return all(r.own_table_violations == 0 for r in self.records)

    def foreign_table_unsafe_chips(self) -> int:
        """Chips on which the reference chip's table undervolts."""
        return sum(
            1 for r in self.records if r.foreign_table_violations > 0
        )

    def format(self) -> str:
        """Render the per-chip table and the population summary."""
        table = format_table(
            (
                "seed",
                "1-core Vmin(mV)",
                "full-chip Vmin(mV)",
                "own-table viol",
                "foreign-table viol",
            ),
            [
                (
                    r.silicon_seed,
                    round(r.single_core_vmin_mv, 1),
                    round(r.full_chip_vmin_mv, 1),
                    r.own_table_violations,
                    r.foreign_table_violations,
                )
                for r in self.records
            ],
            title=(
                f"Chip-to-chip variation study ({self.platform}, "
                f"{len(self.records)} dies)"
            ),
        )
        return (
            f"{table}\n"
            f"\nfull-chip spread {self.full_chip_spread_mv():.0f} mV; "
            f"golden-die table unsafe on "
            f"{self.foreign_table_unsafe_chips()} dies"
        )


def _worst_single_core_vmin(spec: ChipSpec, model: VminModel) -> float:
    worst = 0.0
    for core in range(spec.n_cores):
        for profile in characterization_set():
            worst = max(
                worst,
                model.safe_vmin_mv(
                    spec.fmax_hz, (core,), profile.vmin_delta_mv
                ),
            )
    return worst


def _daemon_violations(
    spec: ChipSpec,
    points: Sequence[Tuple[VminModel, VminPolicyTable]],
    duration_s: float,
    workload_seed: int,
) -> List[int]:
    """Violations of the daemon at each (die, deployed table) point.

    The die reaches only the safety audit, so every point with an equal
    table makes the same decisions: each distinct table is one replay
    with one lane per point.
    """
    workload = ServerWorkloadGenerator(
        max_cores=spec.n_cores, seed=workload_seed
    ).generate(duration_s)
    groups: Dict[Tuple[Tuple[PolicyEntry, ...], int], List[int]] = {}
    for index, (_, table) in enumerate(points):
        key = (tuple(table.rows()), table.guard_mv)
        groups.setdefault(key, []).append(index)
    violations = [0] * len(points)
    # The group holding the last point replays last, so the run's
    # sim.run gauges are that point's, as with one replay per point.
    for indices in sorted(groups.values(), key=lambda group: group[-1]):
        lanes = [SimLane(vmin_model=points[i][0]) for i in indices]
        daemon = OnlineMonitoringDaemon(spec, policy=points[indices[0]][1])
        ServerSystem(
            Chip(spec), workload, daemon, trace_period_s=None, lanes=lanes
        ).run()
        for index, lane in zip(indices, lanes):
            violations[index] = len(lane.violations)
    return violations


def run(
    platform: str = "xgene2",
    seeds: Sequence[int] = tuple(range(8)),
    duration_s: float = 1800.0,
    workload_seed: int = 3,
) -> VariationStudyResult:
    """Run the study over a population of silicon instances."""
    spec = get_spec(platform)
    models = {seed: VminModel(spec, silicon_seed=seed) for seed in seeds}
    single_core = {
        seed: _worst_single_core_vmin(spec, models[seed]) for seed in seeds
    }
    # The "golden die" trap: characterize once on the most robust chip
    # of the population and deploy that table everywhere.
    golden_seed = min(seeds, key=single_core.__getitem__)
    golden_policy = VminPolicyTable.from_characterization(
        spec, vmin_model=models[golden_seed]
    )
    worst_profile = max(characterization_set(), key=lambda p: p.vmin_delta_mv)
    full_cores = cores_for(spec, spec.n_cores, Allocation.CLUSTERED)
    points: List[Tuple[VminModel, VminPolicyTable]] = []
    for seed in seeds:
        own_policy = VminPolicyTable.from_characterization(
            spec, vmin_model=models[seed]
        )
        points += [(models[seed], own_policy), (models[seed], golden_policy)]
    violations = _daemon_violations(spec, points, duration_s, workload_seed)
    result = VariationStudyResult(platform=spec.name)
    for index, seed in enumerate(seeds):
        result.records.append(
            ChipRecord(
                silicon_seed=seed,
                single_core_vmin_mv=single_core[seed],
                full_chip_vmin_mv=models[seed].safe_vmin_mv(
                    spec.fmax_hz, full_cores, worst_profile.vmin_delta_mv
                ),
                own_table_violations=violations[2 * index],
                foreign_table_violations=violations[2 * index + 1],
            )
        )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> VariationStudyResult:
    """The chip-to-chip variation study over four dies."""
    return run(platform, duration_s=duration_s, seeds=range(4))
