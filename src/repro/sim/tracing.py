"""Time-series tracing for the evaluation figures (Figs. 14 and 15).

The trace samples the running system at a fixed period (1 s in the
paper's plots): instantaneous power, busy cores, running process counts
split by the daemon's classification, rail voltage and mean active
frequency. A moving-average helper reproduces the paper's 1-minute
smoothing of the system-load curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import SimulationError


@dataclass(frozen=True, slots=True)
class TraceSample:
    """One sample of the running system."""

    time_s: float
    power_w: float
    busy_cores: int
    running_processes: int
    cpu_intensive: int
    memory_intensive: int
    voltage_mv: int
    mean_active_freq_hz: float


@dataclass(slots=True)
class TimelineTrace:
    """Fixed-period samples of the whole run."""

    period_s: float = 1.0
    samples: List[TraceSample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise SimulationError("trace period must be positive")

    def append(self, sample: TraceSample) -> None:
        """Add one sample (time must be non-decreasing).

        Equal-time samples are explicitly legal: the simulator may
        emit a sample at an instant where several events coincide
        (e.g. a finish and a monitor tick at the same timestamp). Only
        strictly decreasing — or non-comparable (NaN) — times are
        rejected.
        """
        if math.isnan(sample.time_s):  # NaN never orders
            raise SimulationError("trace sample time must not be NaN")
        if self.samples and not (
            sample.time_s >= self.samples[-1].time_s
        ):
            raise SimulationError(
                "trace sample times must be non-decreasing "
                f"(got {sample.time_s} after {self.samples[-1].time_s})"
            )
        self.samples.append(sample)

    def power_series(self) -> List[float]:
        """Instantaneous power per sample (Fig. 14)."""
        return [s.power_w for s in self.samples]

    def load_series(self) -> List[int]:
        """Busy-core count per sample (the system-load proxy, Fig. 15)."""
        return [s.busy_cores for s in self.samples]

    def class_series(self) -> List[tuple]:
        """(cpu-intensive, memory-intensive) counts per sample (Fig. 15)."""
        return [(s.cpu_intensive, s.memory_intensive) for s in self.samples]

    def average_power_w(self) -> float:
        """Mean of the sampled power values."""
        if not self.samples:
            return 0.0
        return sum(s.power_w for s in self.samples) / len(self.samples)

    def peak_power_w(self) -> float:
        """Largest sampled power value."""
        if not self.samples:
            return 0.0
        return max(s.power_w for s in self.samples)


def moving_average(
    values: Sequence[float], window: int
) -> List[float]:
    """Trailing moving average, as in the paper's 1-minute load curve.

    The first ``window - 1`` outputs average over what is available.
    """
    if window < 1:
        raise SimulationError("window must be >= 1")
    out: List[float] = []
    acc = 0.0
    for index, value in enumerate(values):
        acc += value
        if index >= window:
            acc -= values[index - window]
        out.append(acc / min(index + 1, window))
    return out
