"""A noisy counter read: the perf/PAPI path the paper avoided.

Section VI.A motivates the daemon's kernel module with the ±3 % error
of perf-style tooling. :class:`PerfLikeReader` is a
:data:`~repro.core.monitoring.CounterReader` with that error, so the
measurement-noise tests can count the misclassifications noise causes
near the 3 K threshold. No entry point of the package reads counters
this way.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.errors import ConfigurationError
from repro.sim.process import SimProcess


class PerfLikeReader:
    """Counter reads with ±``noise`` relative error (perf/PAPI path)."""

    def __init__(self, noise: float = 0.03, seed: int = 0):
        if not 0.0 <= noise < 1.0:
            raise ConfigurationError("noise must be in [0, 1)")
        self._noise = noise
        self._rng = random.Random(seed)

    def __call__(self, process: SimProcess) -> Tuple[float, float]:
        def jitter(value: float) -> float:
            return value * (
                1.0 + self._rng.uniform(-self._noise, self._noise)
            )

        return (
            jitter(process.counters.cycles),
            jitter(process.counters.l3_accesses),
        )
