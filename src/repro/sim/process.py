"""Process model of the server simulation.

A :class:`SimProcess` is one issued job: a benchmark profile, a thread
count and an arrival time, plus the mutable execution state the fluid
simulation tracks — assigned cores, remaining work fraction and the
per-process PMU accumulation the daemon classifies from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import SimulationError
from ..workloads.phases import AnyBenchmark, profile_at
from ..workloads.profiles import BenchmarkProfile


class ProcessState(enum.Enum):
    """Lifecycle of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"


class WorkloadClass(enum.Enum):
    """The daemon's process classes (Section IV.B)."""

    UNKNOWN = "unknown"
    CPU_INTENSIVE = "cpu"
    MEMORY_INTENSIVE = "memory"


@dataclass(slots=True)
class ProcessCounters:
    """Per-process PMU accumulation (what the kernel module exposes)."""

    cycles: float = 0.0
    l3_accesses: float = 0.0


@dataclass(eq=False, slots=True)
class SimProcess:
    """One job instance inside the simulation.

    Identity semantics (``eq=False``): two process objects are the same
    process only if they are the same object, and processes are hashable
    as dictionary keys (migration maps, daemon state).
    """

    pid: int
    #: Behaviour description: a static profile or a phased benchmark.
    profile: AnyBenchmark
    nthreads: int
    arrival_s: float
    state: ProcessState = ProcessState.QUEUED
    cores: Tuple[int, ...] = ()
    #: Fraction of the job's work still to do (1.0 at start, 0.0 done).
    remaining_fraction: float = 1.0
    #: The daemon's current belief about the process class.
    observed_class: WorkloadClass = WorkloadClass.UNKNOWN
    counters: ProcessCounters = field(default_factory=ProcessCounters)
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    migrations: int = 0

    @property
    def name(self) -> str:
        """Benchmark name of the job."""
        return self.profile.name

    @property
    def is_running(self) -> bool:
        """True while the job occupies cores."""
        return self.state is ProcessState.RUNNING

    @property
    def done_fraction(self) -> float:
        """Fraction of the job's work already completed."""
        return 1.0 - self.remaining_fraction

    def current_profile(self) -> BenchmarkProfile:
        """Active behaviour profile at the current progress point.

        Static benchmarks return themselves; phased benchmarks return
        the profile of the phase the job is currently in.
        """
        return profile_at(self.profile, self.done_fraction)

    @property
    def reference_class(self) -> WorkloadClass:
        """Ground-truth class of the *current phase* at the reference
        point.

        Traces of daemon-less configurations (the Baseline of Fig. 15)
        fall back to this, since no classifier runs there.
        """
        if self.current_profile().is_memory_intensive_reference():
            return WorkloadClass.MEMORY_INTENSIVE
        return WorkloadClass.CPU_INTENSIVE

    def start(self, time_s: float, cores: Tuple[int, ...]) -> None:
        """Transition QUEUED -> RUNNING on the given cores."""
        if self.state is not ProcessState.QUEUED:
            raise SimulationError(f"pid {self.pid}: start from {self.state}")
        if len(cores) != self.nthreads:
            raise SimulationError(
                f"pid {self.pid}: {self.nthreads} threads but "
                f"{len(cores)} cores"
            )
        self.state = ProcessState.RUNNING
        self.cores = tuple(cores)
        self.start_s = time_s

    def migrate(self, cores: Tuple[int, ...]) -> None:
        """Move the running job to a different core set."""
        if self.state is not ProcessState.RUNNING:
            raise SimulationError(f"pid {self.pid}: migrate while {self.state}")
        if len(cores) != self.nthreads:
            raise SimulationError(
                f"pid {self.pid}: migration needs {self.nthreads} cores"
            )
        if tuple(cores) != self.cores:
            self.cores = tuple(cores)
            self.migrations += 1

    def finish(self, time_s: float) -> None:
        """Transition RUNNING -> DONE."""
        if self.state is not ProcessState.RUNNING:
            raise SimulationError(f"pid {self.pid}: finish from {self.state}")
        self.state = ProcessState.DONE
        self.cores = ()
        self.remaining_fraction = 0.0
        self.finish_s = time_s
