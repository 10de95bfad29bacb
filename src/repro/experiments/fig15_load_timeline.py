"""Figure 15 — system load and running-process classes over one hour.

The per-second trace of the evaluation run: the 1-minute moving average
of the system load, plus the number of running CPU-intensive and
memory-intensive processes. The run is Fig. 14's Optimal run, which
the orchestrator hands over (``depends``). Reproduction criteria:
phases of high and low utilisation with occasional peaks at the
machine's capacity, and a mix of both classes throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.tables import format_table
from ..sim.tracing import TimelineTrace, moving_average
from .fig14_power_timeline import Fig14Result


@dataclass
class Fig15Result:
    """Load and class-count series of one Optimal run."""

    platform: str
    max_cores: int
    trace: TimelineTrace

    def load_moving_average(self) -> List[float]:
        """1-minute moving average of busy cores (the paper's curve)."""
        return moving_average(
            [float(v) for v in self.trace.load_series()], 60
        )

    def peak_load(self) -> int:
        """Largest sampled busy-core count."""
        return max(self.trace.load_series(), default=0)

    def class_counts(self) -> List[Tuple[int, int]]:
        """(cpu-intensive, memory-intensive) per second."""
        return self.trace.class_series()

    def has_both_classes(self) -> bool:
        """True when both classes appear in the run."""
        counts = self.class_counts()
        return any(c > 0 for c, _ in counts) and any(
            m > 0 for _, m in counts
        )

    def series(self, bucket_s: int = 60) -> List[Tuple[int, float, int, int]]:
        """(minute, avg load, max cpu procs, max mem procs) buckets."""
        loads = self.load_moving_average()
        classes = self.class_counts()
        rows = []
        for start in range(0, len(loads), bucket_s):
            chunk_load = loads[start:start + bucket_s]
            chunk_cls = classes[start:start + bucket_s]
            rows.append(
                (
                    start // bucket_s,
                    sum(chunk_load) / len(chunk_load),
                    max((c for c, _ in chunk_cls), default=0),
                    max((m for _, m in chunk_cls), default=0),
                )
            )
        return rows

    def format(self) -> str:
        """Render per-minute load and class peaks."""
        return format_table(
            ("minute", "avg load", "cpu procs", "mem procs"),
            [
                (minute, round(load, 2), cpu, mem)
                for minute, load, cpu, mem in self.series()
            ],
            title=(
                f"Figure 15 - system load and process classes "
                f"({self.platform}, {self.max_cores} cores)"
            ),
        )


def render(
    platform: str,
    duration_s: float,
    seed: int,
    policy: str | None,
    fig14: Fig14Result,
) -> Fig15Result:
    """The Fig. 15 load timeline of Fig. 14's non-baseline run.

    That is the Optimal run the paper traces, or the ``policy`` run.
    """
    return Fig15Result(
        platform=fig14.platform,
        max_cores=fig14.evaluation.workload.max_cores,
        trace=fig14.optimal_trace,
    )
