"""Figure 12 — energy-delay-squared product across configurations.

Same grid as Fig. 11, but on the ED2P metric that the daemon's policies
optimise. The reproduction criteria:

* for the CPU-intensive benchmarks (namd, EP) the *highest* frequency has
  the best (lowest) ED2P at every thread count;
* for the memory-intensive benchmarks (milc, CG, FT) the relation
  inverts: lower frequency means better ED2P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..allocation import Allocation
from ..analysis.tables import format_table
from ..platform.specs import get_spec
from ..units import fmt_freq
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import figure11_set
from .energy_runner import EnergyRunner, RunMeasurement


@dataclass(frozen=True)
class Fig12Cell:
    """One (benchmark, threads, frequency) ED2P measurement."""

    benchmark: str
    nthreads: int
    freq_hz: int
    measurement: RunMeasurement

    @property
    def ed2p(self) -> float:
        """ED2P of the configuration."""
        return self.measurement.ed2p


@dataclass
class Fig12Result:
    """The full Fig. 12 grid of one platform."""

    platform: str
    cells: List[Fig12Cell] = field(default_factory=list)

    def ed2p_of(self, benchmark: str, nthreads: int, freq_hz: int) -> float:
        """ED2P of one grid cell."""
        for cell in self.cells:
            if (
                cell.benchmark == benchmark
                and cell.nthreads == nthreads
                and cell.freq_hz == freq_hz
            ):
                return cell.ed2p
        raise KeyError((benchmark, nthreads, freq_hz))

    def best_frequency(self, benchmark: str, nthreads: int) -> int:
        """Frequency with the best (lowest) ED2P."""
        candidates = [
            c
            for c in self.cells
            if c.benchmark == benchmark and c.nthreads == nthreads
        ]
        return min(candidates, key=lambda c: c.ed2p).freq_hz

    def format(self) -> str:
        """Render the grid."""
        return format_table(
            ("benchmark", "threads", "freq", "ED2P(J*s^2)"),
            [
                (
                    c.benchmark,
                    c.nthreads,
                    fmt_freq(c.freq_hz),
                    c.ed2p,
                )
                for c in self.cells
            ],
            title=f"Figure 12 - ED2P ({self.platform})",
        )


def run(
    platform: str = "xgene2",
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
    voltage: str = "safe",
) -> Fig12Result:
    """Measure the Fig. 12 grid for one platform."""
    spec = get_spec(platform)
    runner = EnergyRunner(spec)
    pool = list(benchmarks) if benchmarks else figure11_set()
    result = Fig12Result(platform=spec.name)
    for profile in pool:
        # Every (threads, frequency) cell of one benchmark in one
        # batched sweep; cell order matches the original scalar loops.
        configs = []
        for nthreads in runner.thread_grid().values():
            allocation = (
                Allocation.CLUSTERED
                if nthreads == spec.n_cores
                else Allocation.SPREADED
            )
            for freq_hz in runner.frequency_grid().values():
                configs.append((nthreads, allocation, freq_hz))
        for measurement in runner.measure_batch(
            profile, configs, voltage=voltage
        ):
            result.cells.append(
                Fig12Cell(
                    benchmark=profile.name,
                    nthreads=measurement.nthreads,
                    freq_hz=measurement.freq_hz,
                    measurement=measurement,
                )
            )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig12Result:
    """The Fig. 12 ED2P sweep for one platform.

    A ``policy`` key reruns the sweep at that policy's idle-machine
    rail mode (default: the safe-Vmin sweep the paper reports).
    """
    return run(platform, voltage=policy or "safe")
