"""Figure 15 — system load and running-process classes over one hour.

The per-second trace of the evaluation run: the 1-minute moving average
of the system load, plus the number of running CPU-intensive and
memory-intensive processes. Reproduction criteria: phases of high and
low utilisation with occasional peaks at the machine's capacity, and a
mix of both classes throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.tables import format_table
from ..core.configurations import run_configuration
from ..sim.tracing import TimelineTrace, moving_average
from ..workloads.generator import ServerWorkloadGenerator, Workload
from ..platform.specs import get_spec


@dataclass
class Fig15Result:
    """Load and class-count series of one Optimal run."""

    platform: str
    max_cores: int
    trace: TimelineTrace

    def load_moving_average(self, window_s: int = 60) -> List[float]:
        """1-minute moving average of busy cores (the paper's curve)."""
        return moving_average(
            [float(v) for v in self.trace.load_series()], window_s
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


def run(
    platform: str = "xgene3",
    duration_s: float = 3600.0,
    seed: int = 0,
    config: str = "optimal",
    workload: Optional[Workload] = None,
) -> Fig15Result:
    """Replay one workload and keep its load trace."""
    spec = get_spec(platform)
    if workload is None:
        generator = ServerWorkloadGenerator(
            max_cores=spec.n_cores, seed=seed
        )
        workload = generator.generate(duration_s)
    result = run_configuration(platform, workload, config)
    return Fig15Result(
        platform=spec.name,
        max_cores=spec.n_cores,
        trace=result.trace,
    )


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig15Result:
    """The Fig. 15 load timeline.

    A ``policy`` key replays the run under that policy (default: the
    Optimal run the paper traces).
    """
    return run(
        platform, duration_s=duration_s, seed=seed, config=policy or "optimal"
    )
