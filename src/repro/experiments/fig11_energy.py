"""Figure 11 — energy across thread and frequency configurations.

Five benchmarks, ordered from the most CPU-intensive (namd, EP) to the
most memory-intensive (milc, CG, FT), at every thread-scaling option
(max/half/quarter) and reported frequency, each at its own safe Vmin.
The paper's patterns:

* X-Gene 2 at 0.9 GHz wins energy everywhere (clock division Vmin drop);
* for CPU-intensive programs, frequency reduction from fmax to fmax/2
  barely changes energy (at best); for memory-intensive programs it is a
  clear win on both chips.
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
class Fig11Cell:
    """One (benchmark, threads, frequency) energy measurement."""

    benchmark: str
    nthreads: int
    freq_hz: int
    measurement: RunMeasurement

    @property
    def energy_j(self) -> float:
        """Normalized energy of the configuration."""
        return self.measurement.normalized_energy_j


@dataclass
class Fig11Result:
    """The full Fig. 11 grid of one platform."""

    platform: str
    cells: List[Fig11Cell] = field(default_factory=list)

    def energy_of(
        self, benchmark: str, nthreads: int, freq_hz: int
    ) -> float:
        """Energy of one grid cell."""
        for cell in self.cells:
            if (
                cell.benchmark == benchmark
                and cell.nthreads == nthreads
                and cell.freq_hz == freq_hz
            ):
                return cell.energy_j
        raise KeyError((benchmark, nthreads, freq_hz))

    def best_frequency(self, benchmark: str, nthreads: int) -> int:
        """Frequency with the lowest energy for one benchmark/threads."""
        candidates = [
            c
            for c in self.cells
            if c.benchmark == benchmark and c.nthreads == nthreads
        ]
        return min(candidates, key=lambda c: c.energy_j).freq_hz

    def format(self) -> str:
        """Render the grid."""
        return format_table(
            ("benchmark", "threads", "freq", "Vmin(mV)", "time(s)", "E(J)"),
            [
                (
                    c.benchmark,
                    c.nthreads,
                    fmt_freq(c.freq_hz),
                    c.measurement.voltage_mv,
                    round(c.measurement.duration_s, 1),
                    round(c.energy_j, 1),
                )
                for c in self.cells
            ],
            title=f"Figure 11 - energy ({self.platform})",
        )


def run(
    platform: str = "xgene2",
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
    voltage: str = "safe",
) -> Fig11Result:
    """Measure the Fig. 11 grid for one platform."""
    spec = get_spec(platform)
    runner = EnergyRunner(spec)
    pool = list(benchmarks) if benchmarks else figure11_set()
    result = Fig11Result(platform=spec.name)
    threads = runner.thread_grid()
    freqs = runner.frequency_grid()
    for profile in pool:
        # Every (threads, frequency) cell of one benchmark in one
        # batched sweep; cell order matches the original scalar loops.
        configs = []
        for nthreads in threads.values():
            allocation = (
                Allocation.CLUSTERED
                if nthreads == spec.n_cores
                else Allocation.SPREADED
            )
            for freq_hz in freqs.values():
                configs.append((nthreads, allocation, freq_hz))
        for measurement in runner.measure_batch(
            profile, configs, voltage=voltage
        ):
            result.cells.append(
                Fig11Cell(
                    benchmark=profile.name,
                    nthreads=measurement.nthreads,
                    freq_hz=measurement.freq_hz,
                    measurement=measurement,
                )
            )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig11Result:
    """The Fig. 11 energy sweep for one platform.

    A ``policy`` key reruns the sweep at that policy's idle-machine
    rail mode (default: the safe-Vmin sweep the paper reports).
    """
    return run(platform, voltage=policy or "safe")
