"""Figure 12 — energy-delay-squared product across configurations.

Fig. 11's grid, on the ED2P metric that the daemon's policies optimise:
the figure formats the ED2P of the run's Fig. 11 measurements, which
the orchestrator hands over (``depends``). The reproduction criteria:

* for the CPU-intensive benchmarks (namd, EP) the *highest* frequency has
  the best (lowest) ED2P at every thread count;
* for the memory-intensive benchmarks (milc, CG, FT) the relation
  inverts: lower frequency means better ED2P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..analysis.tables import format_table
from ..units import fmt_freq
from .energy_runner import RunMeasurement
from .fig11_energy import Fig11Result


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


def run(energy: Fig11Result) -> Fig12Result:
    """The Fig. 12 grid: the ED2P of every Fig. 11 measurement, in
    Fig. 11's cell order."""
    return Fig12Result(
        platform=energy.platform,
        cells=[
            Fig12Cell(
                benchmark=cell.benchmark,
                nthreads=cell.nthreads,
                freq_hz=cell.freq_hz,
                measurement=cell.measurement,
            )
            for cell in energy.cells
        ],
    )


def render(
    platform: str,
    duration_s: float,
    seed: int,
    policy: str | None,
    fig11: Fig11Result,
) -> Fig12Result:
    """The ED2P of the run's Fig. 11 sweep on the same platform, which
    ran at ``policy``'s idle-machine rail mode (default: the safe-Vmin
    sweep the paper reports)."""
    return run(fig11)
