"""Tables III and IV — the four-configuration evaluation on both chips.

One generated 1-hour server workload per machine, replayed under
Baseline, Safe-Vmin, Placement and Optimal. Reported per configuration:
completion time, average power, energy, energy savings, ED2P and ED2P
savings, as in the paper's Tables III (X-Gene 2) and IV (X-Gene 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.tables import format_table
from ..core.configurations import (
    CONFIG_NAMES,
    EvaluationResult,
    run_evaluation,
)
from ..workloads.generator import Workload

#: Paper Table III / Table IV reference values, by platform registry key.
PAPER_RESULTS: Dict[str, Dict[str, Dict[str, float]]] = {
    "xgene2": {
        "baseline": {"time_s": 3707, "power_w": 6.90, "energy_j": 25578.30},
        "safe_vmin": {"energy_savings_pct": 11.6, "ed2p_savings_pct": 11.6},
        "placement": {"energy_savings_pct": 18.3, "ed2p_savings_pct": 12.8},
        "optimal": {"energy_savings_pct": 25.2, "ed2p_savings_pct": 20.1},
    },
    "xgene3": {
        "baseline": {"time_s": 3748, "power_w": 36.49, "energy_j": 136773.26},
        "safe_vmin": {"energy_savings_pct": 10.9, "ed2p_savings_pct": 10.9},
        "placement": {"energy_savings_pct": 13.4, "ed2p_savings_pct": 8.9},
        "optimal": {"energy_savings_pct": 22.3, "ed2p_savings_pct": 18.2},
    },
}

#: Paper table numeral per platform registry key.
_TABLE_NUMBERS = {"xgene2": "III", "xgene3": "IV"}


@dataclass
class TableResult:
    """One regenerated evaluation table."""

    evaluation: EvaluationResult

    @property
    def platform(self) -> str:
        """Platform name of the run."""
        return self.evaluation.platform

    def platform_key(self) -> str:
        """Registry key of the run's platform ('' when unregistered)."""
        from ..platform.registry import try_get_platform

        model = try_get_platform(self.platform)
        return model.key if model is not None else ""

    def paper_reference(self) -> Dict[str, Dict[str, float]]:
        """The paper's values for this platform (empty for non-paper
        chips: the paper only evaluated Tables III and IV)."""
        return PAPER_RESULTS.get(self.platform_key(), {})

    def format(self) -> str:
        """Render the table with paper savings alongside."""
        paper = self.paper_reference()
        rows = []
        for row in self.evaluation.rows():
            paper_savings = paper.get(row.config, {}).get(
                "energy_savings_pct"
            )
            rows.append(
                (
                    row.config,
                    round(row.time_s, 0),
                    round(row.average_power_w, 2),
                    round(row.energy_j, 1),
                    f"{row.energy_savings_pct:.1f}%",
                    f"{paper_savings:.1f}%" if paper_savings else "-",
                    f"{row.ed2p:.3e}",
                    f"{row.ed2p_savings_pct:.1f}%",
                )
            )
        number = _TABLE_NUMBERS.get(self.platform_key())
        title = (
            f"Table {number} - evaluation results ({self.platform})"
            if number
            else f"Evaluation results ({self.platform})"
        )
        return format_table(
            (
                "config",
                "time(s)",
                "power(W)",
                "energy(J)",
                "E save",
                "paper",
                "ED2P",
                "ED2P save",
            ),
            rows,
            title=title,
        )


def run(
    platform: str = "xgene2",
    duration_s: float = 3600.0,
    seed: int = 0,
    workload: Optional[Workload] = None,
    policy: Optional[str] = None,
) -> TableResult:
    """Regenerate Table III (xgene2) or Table IV (xgene3).

    A ``policy`` registry key appends that policy as an extra
    comparison row under the paper's four configurations.
    """
    configs = CONFIG_NAMES
    if policy is not None and policy not in CONFIG_NAMES:
        configs = (*CONFIG_NAMES, policy)
    return TableResult(
        run_evaluation(
            platform,
            duration_s=duration_s,
            seed=seed,
            workload=workload,
            configs=configs,
        )
    )


def render_table3(
    platform: str | None, duration_s: float, seed: int, policy: str | None
) -> TableResult:
    """Table III (the paper fixes it to X-Gene 2)."""
    return run("xgene2", duration_s=duration_s, seed=seed, policy=policy)


def render_table4(
    platform: str | None, duration_s: float, seed: int, policy: str | None
) -> TableResult:
    """Table IV (the paper fixes it to X-Gene 3)."""
    return run("xgene3", duration_s=duration_s, seed=seed, policy=policy)
