"""Figure 7 — energy of clustered vs spreaded allocation (4T, X-Gene 2).

All 25 benchmarks at maximum frequency with 4 threads, clustered vs
spreaded, at nominal voltage. The reported difference
``(E_clustered - E_spreaded) / E_clustered`` is negative for
CPU-intensive programs (clustered wins: fewer utilized PMDs to power)
and positive for memory-intensive programs (spreaded wins: a private L2
per thread) — spanning roughly -10 % to +14 % in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..allocation import Allocation
from ..analysis.tables import format_table
from ..platform.specs import get_spec
from ..units import hz_to_ghz
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import characterization_set
from .energy_runner import EnergyRunner


@dataclass(frozen=True)
class Fig7Row:
    """Clustered/spreaded energies of one benchmark."""

    benchmark: str
    mem_fraction: float
    energy_clustered_j: float
    energy_spreaded_j: float

    @property
    def diff_pct(self) -> float:
        """Paper metric: (Ec - Es) / Ec * 100; positive = spreaded wins."""
        return (
            100.0
            * (self.energy_clustered_j - self.energy_spreaded_j)
            / self.energy_clustered_j
        )


@dataclass
class Fig7Result:
    """All allocation-energy comparisons, CPU-intensive first."""

    platform: str
    nthreads: int
    freq_hz: int
    rows: List[Fig7Row] = field(default_factory=list)

    def sorted_rows(self) -> List[Fig7Row]:
        """Rows ordered like the figure: most CPU-intensive first."""
        return sorted(self.rows, key=lambda r: r.mem_fraction)

    def span(self) -> Sequence[float]:
        """(min, max) of the difference metric."""
        diffs = [r.diff_pct for r in self.rows]
        return min(diffs), max(diffs)

    def format(self) -> str:
        """Render the figure data and its span."""
        table = format_table(
            ("benchmark", "E clustered(J)", "E spreaded(J)", "diff(%)"),
            [
                (
                    r.benchmark,
                    round(r.energy_clustered_j, 1),
                    round(r.energy_spreaded_j, 1),
                    round(r.diff_pct, 1),
                )
                for r in self.sorted_rows()
            ],
            title=(
                f"Figure 7 - allocation energy, {self.nthreads}T @ "
                f"{hz_to_ghz(self.freq_hz):.1f}GHz ({self.platform})"
            ),
        )
        low, high = self.span()
        return (
            f"{table}\n"
            f"\nspan: {low:.1f}% .. {high:+.1f}% (paper: -9.6% .. +14.2%)"
        )


def run(
    platform: str = "xgene2",
    nthreads: int = 4,
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
    voltage: str = "nominal",
) -> Fig7Result:
    """Measure every benchmark under both allocations."""
    spec = get_spec(platform)
    runner = EnergyRunner(spec)
    pool = list(benchmarks) if benchmarks else characterization_set()
    result = Fig7Result(
        platform=spec.name, nthreads=nthreads, freq_hz=spec.fmax_hz
    )
    for profile in pool:
        # Both allocations of one benchmark in a single batched sweep.
        clustered, spreaded = runner.measure_batch(
            profile,
            [
                (nthreads, Allocation.CLUSTERED, None),
                (nthreads, Allocation.SPREADED, None),
            ],
            voltage=voltage,
        )
        result.rows.append(
            Fig7Row(
                benchmark=profile.name,
                mem_fraction=profile.mem_fraction,
                energy_clustered_j=clustered.normalized_energy_j,
                energy_spreaded_j=spreaded.normalized_energy_j,
            )
        )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig7Result:
    """Fig. 7 with its allocation-energy span.

    A ``policy`` key reruns the comparison at that policy's idle-machine
    rail mode (default: the nominal-rail comparison the paper reports).
    """
    return run(platform, voltage=policy or "nominal")
