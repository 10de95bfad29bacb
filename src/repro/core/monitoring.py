"""The monitoring half of the online daemon (Section VI.A).

The monitor is a watchdog that periodically reads per-process performance
counters (through the paper's zero-overhead kernel-module path, or a
noisy perf-like path for the measurement ablation), computes each
process's L3C access rate over a window of at least one million cycles,
and (re)classifies the process. It also reports the currently utilized
PMDs, which determine the droop class the placement half must respect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..errors import ConfigurationError
from ..sim.process import SimProcess, WorkloadClass
from ..telemetry import names as metric_names
from .classifier import ClassificationSample, L3RateClassifier

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from ..policies.surfaces import Observation, TickHorizon

#: Minimum cycle window between two classification reads (Section VI.A:
#: the daemon counts L3C accesses during one million cycles).
MIN_WINDOW_CYCLES = 1_000_000

#: Reads (cycles, l3_accesses) of a process; replaceable for noise models.
CounterReader = Callable[[SimProcess], Tuple[float, float]]


def kernel_module_reader(process: SimProcess) -> Tuple[float, float]:
    """Exact counter read (the paper's kernel-module path)."""
    return process.counters.cycles, process.counters.l3_accesses


class PerfLikeReader:
    """Counter reads with ±``noise`` relative error (perf/PAPI path).

    Section VI.A motivates the kernel module with the ±3 % overhead of
    perf-style tooling; this reader exists so the measurement-noise
    ablation can quantify the misclassifications that noise causes near
    the 3 K threshold.
    """

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


@dataclass(frozen=True)
class ClassChange:
    """One process whose class flipped during a monitor pass."""

    process: SimProcess
    sample: ClassificationSample


class MonitoringDaemon:
    """Watchdog half of the daemon: classify processes, track PMDs."""

    def __init__(
        self,
        classifier: Optional[L3RateClassifier] = None,
        reader: Optional[CounterReader] = None,
        min_window_cycles: float = MIN_WINDOW_CYCLES,
    ):
        if min_window_cycles <= 0:
            raise ConfigurationError("window must be positive")
        self.classifier = classifier or L3RateClassifier()
        self.reader: CounterReader = reader or kernel_module_reader
        self.min_window_cycles = min_window_cycles
        #: pid -> counters at the last classification read.
        self._snapshots: Dict[int, Tuple[float, float]] = {}
        self.samples_taken = 0

    def forget(self, process: SimProcess) -> None:
        """Drop state for a finished process."""
        self._snapshots.pop(process.pid, None)

    def sample(self, system: "Observation") -> List[ClassChange]:
        """One monitor pass: classify every running process.

        ``system`` is anything exposing ``running_processes()`` — a live
        :class:`~repro.policies.surfaces.Observation` in the policy
        dispatch path, or the server system itself in tests/tools.

        A process is (re)classified only once its cycle counter advanced
        by at least the window since the previous read — the hardware
        protocol of two counter reads one million cycles apart.
        Returns the processes whose class changed.
        """
        changes: List[ClassChange] = []
        reader = self.reader
        snapshots = self._snapshots
        decide = self.classifier.decide
        classified = 0
        for process in system.running_processes():
            cycles, accesses = reader(process)
            previous = snapshots.get(process.pid)
            if previous is None:
                snapshots[process.pid] = (cycles, accesses)
                continue
            dcycles = cycles - previous[0]
            if dcycles < self.min_window_cycles * process.nthreads:
                continue
            daccesses = max(0.0, accesses - previous[1])
            rate = 1e6 * daccesses / dcycles
            snapshots[process.pid] = (cycles, accesses)
            classified += 1
            was = process.observed_class
            decided = decide(rate, was)
            if decided is was:
                continue
            process.observed_class = decided
            # UNKNOWN -> CPU is not a behavioural change: new processes
            # are already treated as CPU-intensive (the fail-safe
            # default of Fig. 13).
            if (
                was is not WorkloadClass.UNKNOWN
                or decided is not WorkloadClass.CPU_INTENSIVE
            ):
                sample = ClassificationSample(rate, was, decided)
                changes.append(ClassChange(process, sample))
                telemetry.inc(metric_names.DAEMON_CLASS_FLIPS)
        if classified:
            self.samples_taken += classified
            telemetry.inc(metric_names.DAEMON_CLASSIFICATIONS, classified)
        return changes

    def quiet_ticks(self, horizon: "TickHorizon") -> int:
        """How many leading passes of ``horizon`` change nothing, committed.

        A pass is quiet when it classifies every running process (each
        one's cycle window elapsed) and changes no class, UNKNOWN -> CPU
        included. Every (process, tick) rate is :meth:`sample`'s own
        expression over the horizon's counter values, so the decision
        against the hysteresis bounds is exact and needs no margin. For
        the quiet passes this commits what :meth:`sample` would: each
        process's snapshot at the last one and the classification
        count. Only exact reads fold; a noisy reader draws a random
        number per read, so its passes are never quiet here.
        """
        if self.reader is not kernel_module_reader:
            return 0
        processes = horizon.processes
        if not processes:
            return len(horizon)
        snapshots = self._snapshots
        previous = [snapshots.get(p.pid) for p in processes]
        classes = [p.observed_class for p in processes]
        if None in previous or WorkloadClass.UNKNOWN in classes:
            # A first read or a first classification is never quiet.
            return 0
        cycles = horizon.cycles
        accesses = horizon.l3_accesses
        # Every quiet pass re-snapshots every process, so each tick's
        # reads compare against the tick before it.
        first = np.array(previous)
        dcycles = cycles - np.concatenate((first[:, :1], cycles[:, :-1]), 1)
        daccesses = np.maximum(
            0.0,
            accesses - np.concatenate((first[:, 1:], accesses[:, :-1]), 1),
        )
        window = np.array(
            [self.min_window_cycles * p.nthreads for p in processes]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = 1e6 * daccesses / dcycles
        quiet = (dcycles >= window[:, None]) & self.classifier.keeps(
            rate, classes
        )
        passes = quiet.all(axis=0)
        count = len(horizon) if passes.all() else int(np.argmin(passes))
        if count:
            last = count - 1
            for process, read in zip(
                processes,
                zip(cycles[:, last].tolist(), accesses[:, last].tolist()),
            ):
                snapshots[process.pid] = read
            classified = len(processes) * count
            self.samples_taken += classified
            telemetry.inc(metric_names.DAEMON_CLASSIFICATIONS, classified)
        return count

    def utilized_pmds(self, system: "Observation") -> int:
        """Number of PMDs with at least one running thread."""
        return len(system.chip.utilized_pmds)
