"""Figure 9 — L3-cache access rate per million cycles (X-Gene 3, 3 GHz).

The daemon's classification metric, measured for the 25 benchmarks at
32, 16 and 8 threads. The paper derives the 3 K accesses / 1M cycles
threshold from this data: runs above it are the memory-intensive ones
(the same programs whose Fig. 8 ratio collapses), and the class is
stable across thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..allocation import Allocation, cores_for, utilized_pmd_count
from ..analysis.tables import format_table
from ..core.classifier import DEFAULT_THRESHOLD
from ..perf.contention import contention_factor
from ..perf.model import bandwidth_demand_gbs, execution_state
from ..platform.specs import get_spec
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import characterization_set


@dataclass(frozen=True)
class Fig9Row:
    """Measured L3C rate of one benchmark at one thread count."""

    benchmark: str
    nthreads: int
    rate_per_mcycles: float

    def memory_intensive(
        self, threshold: float = DEFAULT_THRESHOLD
    ) -> bool:
        """Class under the paper's threshold rule."""
        return self.rate_per_mcycles > threshold


@dataclass
class Fig9Result:
    """All L3C rates of one platform."""

    platform: str
    freq_hz: int
    threshold: float
    rows: List[Fig9Row] = field(default_factory=list)

    def rate_of(self, benchmark: str, nthreads: int) -> float:
        """Rate of one configuration."""
        for row in self.rows:
            if row.benchmark == benchmark and row.nthreads == nthreads:
                return row.rate_per_mcycles
        raise KeyError((benchmark, nthreads))

    def classes_stable(self) -> bool:
        """True when every benchmark classifies the same at all counts."""
        by_name: dict = {}
        for row in self.rows:
            by_name.setdefault(row.benchmark, set()).add(
                row.memory_intensive(self.threshold)
            )
        return all(len(classes) == 1 for classes in by_name.values())

    def memory_intensive_set(self) -> List[str]:
        """Benchmarks above the threshold at max threads."""
        max_threads = max(r.nthreads for r in self.rows)
        return sorted(
            r.benchmark
            for r in self.rows
            if r.nthreads == max_threads
            and r.memory_intensive(self.threshold)
        )

    def format(self) -> str:
        """Render the figure data and the memory-intensive set."""
        table = format_table(
            ("benchmark", "threads", "L3C/1Mcyc", "class"),
            [
                (
                    r.benchmark,
                    r.nthreads,
                    round(r.rate_per_mcycles),
                    "memory"
                    if r.memory_intensive(self.threshold)
                    else "cpu",
                )
                for r in sorted(
                    self.rows,
                    key=lambda r: (-r.rate_per_mcycles, r.nthreads),
                )
            ],
            title=(
                f"Figure 9 - L3C access rates ({self.platform}, "
                f"threshold {self.threshold:.0f})"
            ),
        )
        return (
            f"{table}\n"
            f"\nmemory-intensive: {', '.join(self.memory_intensive_set())}"
        )


def run(
    platform: str = "xgene3",
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> Fig9Result:
    """Measure the PMU-visible L3C rate at each thread scaling option."""
    spec = get_spec(platform)
    pool = list(benchmarks) if benchmarks else characterization_set()
    counts = [spec.n_cores, spec.n_cores // 2, spec.n_cores // 4]
    result = Fig9Result(
        platform=spec.name, freq_hz=spec.fmax_hz, threshold=threshold
    )
    for profile in pool:
        for nthreads in counts:
            allocation = (
                Allocation.CLUSTERED
                if nthreads == spec.n_cores
                else Allocation.SPREADED
            )
            cores = cores_for(spec, nthreads, allocation)
            pmds = utilized_pmd_count(spec, nthreads, allocation)
            shares = len(cores) > pmds
            demand = bandwidth_demand_gbs(profile, spec, spec.fmax_hz)
            crowd = contention_factor(spec, [demand] * nthreads)
            state = execution_state(
                profile,
                spec,
                spec.fmax_hz,
                nthreads=nthreads,
                shares_pmd=shares,
                contention=crowd,
            )
            result.rows.append(
                Fig9Row(
                    benchmark=profile.name,
                    nthreads=nthreads,
                    rate_per_mcycles=state.l3_rate_per_mcycles,
                )
            )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig9Result:
    """Fig. 9 with the memory-intensive set."""
    return run(platform)
