"""Figure 14 — average power over a 1-hour run, Baseline vs Optimal.

One generated server workload replayed under the Baseline and Optimal
configurations on X-Gene 3; the figure is the per-second power trace of
both runs. The reproduction criteria: the Optimal trace sits visibly
below the Baseline trace through the busy phases, with the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.tables import format_table
from ..core.configurations import EvaluationResult, run_evaluation
from ..sim.tracing import TimelineTrace


@dataclass
class Fig14Result:
    """The Baseline and Optimal (or policy) runs of one workload.

    Fig. 15 formats the non-baseline run's trace, and Tables III and IV
    take both runs on their chip instead of replaying them.
    """

    evaluation: EvaluationResult
    #: Configuration name / policy key of the non-baseline run.
    config: str = "optimal"

    @property
    def platform(self) -> str:
        """Platform name of the runs."""
        return self.evaluation.platform

    @property
    def baseline_trace(self) -> TimelineTrace:
        """Power trace of the Baseline run."""
        return self.evaluation.results["baseline"].trace

    @property
    def optimal_trace(self) -> TimelineTrace:
        """Power trace of the Optimal (or policy) run."""
        return self.evaluation.results[self.config].trace

    def average_power(self) -> Tuple[float, float]:
        """(baseline, optimal) average sampled power."""
        return (
            self.baseline_trace.average_power_w(),
            self.optimal_trace.average_power_w(),
        )

    def reduction_pct(self) -> float:
        """Average-power reduction of Optimal vs Baseline."""
        base, opt = self.average_power()
        return 100.0 * (base - opt) / base

    def series(self, bucket_s: int = 60) -> List[Tuple[int, float, float]]:
        """(minute, baseline W, optimal W) bucket means for rendering."""
        rows = []
        base = self.baseline_trace.power_series()
        opt = self.optimal_trace.power_series()
        for start in range(0, min(len(base), len(opt)), bucket_s):
            chunk_b = base[start:start + bucket_s]
            chunk_o = opt[start:start + bucket_s]
            rows.append(
                (
                    start // bucket_s,
                    sum(chunk_b) / len(chunk_b),
                    sum(chunk_o) / len(chunk_o),
                )
            )
        return rows

    def format(self) -> str:
        """Render per-minute power means and the average powers."""
        table = format_table(
            ("minute", "baseline(W)", f"{self.config}(W)"),
            [
                (minute, round(b, 2), round(o, 2))
                for minute, b, o in self.series()
            ],
            title=f"Figure 14 - average power timeline ({self.platform})",
        )
        base, opt = self.average_power()
        return (
            f"{table}\n"
            f"\naverage power: baseline {base:.2f} W, "
            f"{self.config} {opt:.2f} W"
        )


def run(
    platform: str = "xgene3",
    duration_s: float = 3600.0,
    seed: int = 0,
    config: str = "optimal",
) -> Fig14Result:
    """Replay one workload under Baseline and ``config``, keeping traces.

    ``config`` is a paper configuration name or any policy registry key
    (the paper's figure compares against Optimal).
    """
    evaluation = run_evaluation(
        platform,
        duration_s=duration_s,
        seed=seed,
        configs=("baseline", config),
    )
    return Fig14Result(evaluation=evaluation, config=config)


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig14Result:
    """The Fig. 14 power timeline with average powers.

    A ``policy`` key swaps the non-baseline trace to that policy
    (default: the paper's Baseline-vs-Optimal comparison).
    """
    return run(
        platform, duration_s=duration_s, seed=seed, config=policy or "optimal"
    )
