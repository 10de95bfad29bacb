"""Figure 8 — relative performance under full-chip contention.

Multiple copies of each program run on all cores; the y-axis is the
execution time of one solo instance divided by the execution time under
contention. Programs with high shared-resource activity (CG, FT, mcf,
milc, lbm) collapse far below 1; CPU-intensive programs (namd, EP,
gamess, povray) stay at ~1. This ratio is the paper's ground truth for
the CPU- vs memory-intensive split that the L3C threshold then captures
online (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..analysis.tables import format_table
from ..perf.model import multi_instance_performance_ratio
from ..platform.specs import get_spec
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import characterization_set


@dataclass(frozen=True)
class Fig8Row:
    """Contention ratio of one benchmark."""

    benchmark: str
    mem_fraction: float
    ratio: float


@dataclass
class Fig8Result:
    """All contention ratios of one platform."""

    platform: str
    n_instances: int
    rows: List[Fig8Row] = field(default_factory=list)

    def ratio_of(self, benchmark: str) -> float:
        """Ratio of one benchmark."""
        for row in self.rows:
            if row.benchmark == benchmark:
                return row.ratio
        raise KeyError(benchmark)

    def most_memory_intensive(self, count: int = 3) -> List[str]:
        """Benchmarks with the lowest ratios (most contention-bound)."""
        ordered = sorted(self.rows, key=lambda r: r.ratio)
        return [r.benchmark for r in ordered[:count]]

    def most_cpu_intensive(self, count: int = 3) -> List[str]:
        """Benchmarks with the highest ratios."""
        ordered = sorted(self.rows, key=lambda r: -r.ratio)
        return [r.benchmark for r in ordered[:count]]

    def format(self) -> str:
        """Render the figure data."""
        return format_table(
            ("benchmark", "mem fraction", "T1/TN"),
            [
                (r.benchmark, round(r.mem_fraction, 2), round(r.ratio, 3))
                for r in sorted(self.rows, key=lambda r: -r.ratio)
            ],
            title=(
                f"Figure 8 - relative performance under contention "
                f"({self.platform}, {self.n_instances} instances)"
            ),
        )


def run(
    platform: str = "xgene3",
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
) -> Fig8Result:
    """Compute the T1/TN ratio for every benchmark."""
    spec = get_spec(platform)
    pool = list(benchmarks) if benchmarks else characterization_set()
    result = Fig8Result(platform=spec.name, n_instances=spec.n_cores)
    for profile in pool:
        result.rows.append(
            Fig8Row(
                benchmark=profile.name,
                mem_fraction=profile.mem_fraction,
                ratio=multi_instance_performance_ratio(profile, spec),
            )
        )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig8Result:
    """The Fig. 8 contention ratios for one platform."""
    return run(platform)
