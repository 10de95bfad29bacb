"""Performance Monitoring Unit (PMU) model.

The daemon in the paper observes the chip exclusively through hardware
counters:

* per-core **cycle** and **L3-cache access** counters (the latter derived
  from L2-miss events, Section IV.B) used to classify processes;
* chip-level **voltage-droop detectors** binned by droop magnitude,
  exposed by the embedded oscilloscope of X-Gene 3 (Section IV.A).

The counters here are plain monotonically-increasing registers; the system
simulator advances them as simulated time passes. The daemon reads its
classification counters through one path,
:data:`repro.core.monitoring.CounterReader`: the exact kernel-module read
the paper wrote instead of using ``perf``/PAPI and their ±3 % noise
(Section VI.A), or a noisy perf-like read for the measurement ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from .specs import ChipSpec

#: Droop magnitude bins used throughout the paper, in mV (Table II, Fig. 6).
DROOP_BINS_MV: Tuple[Tuple[int, int], ...] = (
    (25, 35),
    (35, 45),
    (45, 55),
    (55, 65),
)


@dataclass
class CoreCounters:
    """Raw per-core PMU registers (monotonically increasing)."""

    cycles: float = 0.0
    instructions: float = 0.0
    l3_accesses: float = 0.0


class Pmu:
    """Counter banks for one chip: per-core registers plus droop bins."""

    def __init__(self, spec: ChipSpec):
        self.spec = spec
        self.cores: List[CoreCounters] = [
            CoreCounters() for _ in range(spec.n_cores)
        ]
        #: Droop event counts per magnitude bin, chip-wide.
        self.droop_events: Dict[Tuple[int, int], float] = {
            bin_: 0.0 for bin_ in DROOP_BINS_MV
        }

    def core(self, core_id: int) -> CoreCounters:
        """Raw registers of one core."""
        if not 0 <= core_id < self.spec.n_cores:
            raise ConfigurationError(
                f"{self.spec.name}: core {core_id} out of range"
            )
        return self.cores[core_id]
