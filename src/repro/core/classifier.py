"""PMU-based workload classification (Section IV.B).

The daemon classifies every non-system process by its L3-cache access
rate: more than 3 K accesses per million cycles means the process is
bound by the lower memory hierarchy (memory-intensive); anything below is
CPU-intensive. The rate is measured from two reads of one PMU counter
about one million cycles apart (300-500 ms of wall time, depending on the
process's progress).

A small hysteresis band keeps borderline programs (astar, wrf, ...) from
flapping between classes on measurement jitter; the threshold itself is
the paper's 3 K value and is swept by the threshold ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sim.process import WorkloadClass

#: The paper's classification threshold (Fig. 9): L3C accesses / 1M cycles.
DEFAULT_THRESHOLD = 3000.0


@dataclass(frozen=True)
class ClassificationSample:
    """One classification decision, for logs and tests."""

    rate_per_mcycles: float
    previous: WorkloadClass
    decided: WorkloadClass

    @property
    def changed(self) -> bool:
        """True when the class flipped."""
        return (
            self.previous is not WorkloadClass.UNKNOWN
            and self.decided is not self.previous
        )


class L3RateClassifier:
    """Threshold classifier with hysteresis over the L3C rate."""

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        hysteresis: float = 0.05,
    ):
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        if not 0.0 <= hysteresis < 1.0:
            raise ConfigurationError("hysteresis must be in [0, 1)")
        self.threshold = threshold
        self.hysteresis = hysteresis

    @property
    def upper_bound(self) -> float:
        """Rate above which a non-memory process becomes memory-intensive."""
        return self.threshold * (1.0 + self.hysteresis)

    @property
    def lower_bound(self) -> float:
        """Rate below which a memory process becomes CPU-intensive."""
        return self.threshold * (1.0 - self.hysteresis)

    def decide(
        self,
        rate_per_mcycles: float,
        previous: WorkloadClass = WorkloadClass.UNKNOWN,
    ) -> WorkloadClass:
        """The class one measured L3C rate decides, allocation-free."""
        if rate_per_mcycles < 0:
            raise ConfigurationError("rate must be non-negative")
        if previous is WorkloadClass.MEMORY_INTENSIVE:
            bound = self.lower_bound
        elif previous is WorkloadClass.CPU_INTENSIVE:
            bound = self.upper_bound
        else:
            bound = self.threshold
        if rate_per_mcycles > bound:
            return WorkloadClass.MEMORY_INTENSIVE
        return WorkloadClass.CPU_INTENSIVE

    def keeps(
        self, rates: np.ndarray, classes: Sequence[WorkloadClass]
    ) -> np.ndarray:
        """Where :meth:`decide` would leave each class as it is.

        Row ``i`` of ``rates`` holds rates measured for a process of
        class ``classes[i]``. The result is ``True`` where deciding that
        rate returns the same class: above the lower bound for a
        memory-intensive process, not above the upper bound for a
        CPU-intensive one, and never for an unclassified one, which any
        decision classifies.
        """
        memory = np.array(
            [c is WorkloadClass.MEMORY_INTENSIVE for c in classes], dtype=bool
        )
        known = memory | np.array(
            [c is WorkloadClass.CPU_INTENSIVE for c in classes], dtype=bool
        )
        bound = np.where(memory, self.lower_bound, self.upper_bound)
        above = rates > bound[:, None]
        return (above == memory[:, None]) & known[:, None]
