"""Performance Monitoring Unit (PMU) model.

The daemon in the paper observes the chip exclusively through hardware
counters:

* per-process **cycle** and **L3-cache access** counts (the latter
  derived from L2-miss events, Section IV.B) used to classify processes,
  which the simulator keeps on each process
  (:class:`~repro.sim.process.ProcessCounters`);
* chip-level **voltage-droop detectors** binned by droop magnitude,
  exposed by the embedded oscilloscope of X-Gene 3 (Section IV.A).

The counters are plain monotonically-increasing registers; the system
simulator advances them as simulated time passes. The daemon reads its
classification counters through one path,
:data:`repro.core.monitoring.CounterReader`: the exact kernel-module read
the paper wrote instead of using ``perf``/PAPI and their ±3 % noise
(Section VI.A), or a noisy perf-like read for the measurement ablation.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .specs import ChipSpec

#: Droop magnitude bins used throughout the paper, in mV (Table II, Fig. 6).
DROOP_BINS_MV: Tuple[Tuple[int, int], ...] = (
    (25, 35),
    (35, 45),
    (45, 55),
    (55, 65),
)


class Pmu:
    """Chip-level counter bank: the droop detectors' magnitude bins."""

    def __init__(self, spec: ChipSpec):
        self.spec = spec
        #: Droop event counts per magnitude bin, chip-wide.
        self.droop_events: Dict[Tuple[int, int], float] = {
            bin_: 0.0 for bin_ in DROOP_BINS_MV
        }
