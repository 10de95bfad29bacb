"""Workload substrate: benchmark profiles, suites, server-load generator."""

from .generator import (
    JobSpec,
    LoadPhase,
    ServerWorkloadGenerator,
    Workload,
)
from .phases import (
    AnyBenchmark,
    PhasedBenchmark,
    WorkloadPhase,
    get_phased,
    make_phased,
    phase_boundaries,
    profile_at,
    resolve_benchmark,
)
from .profiles import REFERENCE_FREQ_HZ, BenchmarkProfile, Suite
from .suites import (
    CHARACTERIZATION_SPEC,
    FIGURE11_SET,
    characterization_set,
    evaluation_pool,
    figure11_set,
    get_benchmark,
    suite_benchmarks,
)

__all__ = [
    "AnyBenchmark",
    "BenchmarkProfile",
    "CHARACTERIZATION_SPEC",
    "FIGURE11_SET",
    "JobSpec",
    "LoadPhase",
    "PhasedBenchmark",
    "WorkloadPhase",
    "REFERENCE_FREQ_HZ",
    "ServerWorkloadGenerator",
    "Suite",
    "Workload",
    "characterization_set",
    "evaluation_pool",
    "figure11_set",
    "get_benchmark",
    "get_phased",
    "make_phased",
    "phase_boundaries",
    "profile_at",
    "resolve_benchmark",
    "suite_benchmarks",
]
