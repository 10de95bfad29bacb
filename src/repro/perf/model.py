"""Execution-time model under frequency scaling and sharing (Section IV.B).

The paper's performance reasoning rests on one decomposition: a program's
runtime splits into a **core-bound part** (pipeline + L1 + L2), which
scales inversely with the core clock, and a **memory-bound part** (L3 +
DRAM stalls), which does not — the L3 and DRAM live in their own clock
domains. CPU-intensive programs therefore pay the full price of frequency
reduction while memory-intensive programs barely notice it, which is the
lever the daemon pulls.

This module turns a :class:`~repro.workloads.profiles.BenchmarkProfile`
plus an operating point (chip, frequency, thread count, PMD sharing,
contention) into durations, instantaneous execution-state fractions,
PMU-visible L3 rates and effective switching activity. Thread semantics
follow Section II.B: *parallel* programs split one unit of work across N
threads; *replicated* (SPEC) runs execute N full units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..platform.registry import model_for_spec
from ..platform.specs import ChipSpec
from ..workloads.profiles import REFERENCE_FREQ_HZ, BenchmarkProfile
from .contention import STALL_ACTIVITY, l2_sharing_factor


def mem_time_scale(spec: ChipSpec) -> float:
    """Memory-path slowdown of a chip relative to the reference."""
    return model_for_spec(spec).perf.mem_time_scale


@dataclass(frozen=True)
class ThreadWork:
    """Work assigned to one thread of a job.

    ``cpu_cycles`` is frequency-invariant; ``mem_time_s`` is already
    scaled to the target chip's memory path but *not* yet inflated by
    L2 sharing or bandwidth contention (those depend on runtime state).
    """

    cpu_cycles: float
    mem_time_s: float
    l3_accesses: float


def thread_work(
    profile: BenchmarkProfile, spec: ChipSpec, nthreads: int
) -> ThreadWork:
    """Per-thread work of a job with ``nthreads`` threads on ``spec``.

    Parallel programs divide one unit of work (imperfectly, per the
    profile's parallel efficiency); replicated programs give every
    instance a full unit. L3 accesses follow the same split.
    """
    if nthreads < 1:
        raise ConfigurationError("nthreads must be >= 1")
    solo_cycles = profile.ref_time_s * REFERENCE_FREQ_HZ
    accesses = profile.l3_rate_per_mcycles * solo_cycles / 1e6
    cpu_cycles = profile.cpu_cycles
    mem_s = profile.mem_time_s * mem_time_scale(spec)
    if profile.parallel and nthreads > 1:
        share = 1.0 / (nthreads * profile.parallel_efficiency)
        return ThreadWork(
            cpu_cycles=cpu_cycles * share,
            mem_time_s=mem_s * share,
            l3_accesses=accesses * share,
        )
    return ThreadWork(
        cpu_cycles=cpu_cycles, mem_time_s=mem_s, l3_accesses=accesses
    )


def solo_slowdown(
    profile: BenchmarkProfile, spec: ChipSpec, freq_hz: float
) -> float:
    """Single-thread slowdown at ``freq_hz`` vs the reference point.

    Only the core-bound part stretches with a slower clock; this is the
    decomposition behind Figs. 11/12's CPU- vs memory-intensive split.
    """
    if freq_hz <= 0:
        raise ConfigurationError("freq_hz must be positive")
    return (
        profile.cpu_fraction * (REFERENCE_FREQ_HZ / freq_hz)
        + profile.mem_fraction * mem_time_scale(spec)
    )


def bandwidth_demand_gbs(
    profile: BenchmarkProfile, spec: ChipSpec, freq_hz: float
) -> float:
    """Uncontended bandwidth demand of one running thread at ``freq_hz``.

    A fixed number of bytes moves per unit of work; a slower clock
    stretches the run, thinning the demand proportionally. (Per-thread
    demand is thread-count-invariant for parallel programs: 1/N of the
    bytes in 1/N of the time.)
    """
    return profile.bandwidth_gbs / solo_slowdown(profile, spec, freq_hz)


@dataclass(frozen=True)
class ExecutionState:
    """Instantaneous execution state of one thread at an operating point."""

    #: Wall seconds to finish the thread's whole work if this state held.
    duration_s: float
    #: Fraction of wall time spent in the core-bound part.
    cpu_share: float
    #: PMU-visible L3 accesses per million cycles in this state.
    l3_rate_per_mcycles: float
    #: Effective switching activity (drives dynamic power and droops).
    effective_activity: float

    @property
    def mem_share(self) -> float:
        """Fraction of wall time stalled on the lower memory hierarchy."""
        return 1.0 - self.cpu_share


def execution_state(
    profile: BenchmarkProfile,
    spec: ChipSpec,
    freq_hz: float,
    nthreads: int = 1,
    shares_pmd: bool = False,
    contention: float = 1.0,
) -> ExecutionState:
    """Evaluate one thread's execution state at an operating point.

    ``contention`` is the chip-wide memory-time inflation factor
    (:func:`~repro.perf.contention.contention_factor`); ``shares_pmd``
    says whether the thread's PMD sibling core is also busy (clustered
    allocations and full-chip runs).
    """
    if freq_hz <= 0:
        raise ConfigurationError("freq_hz must be positive")
    if contention < 1.0:
        raise ConfigurationError("contention factor cannot be below 1")
    work = thread_work(profile, spec, nthreads)
    cpu_s = work.cpu_cycles / freq_hz
    mem_s = (
        work.mem_time_s
        * l2_sharing_factor(profile.l2_sensitivity, shares_pmd)
        * contention
    )
    duration = cpu_s + mem_s
    cpu_share = cpu_s / duration if duration > 0 else 1.0
    cycles = freq_hz * duration
    l3_rate = 1e6 * work.l3_accesses / cycles if cycles > 0 else 0.0
    effective_activity = profile.activity * (
        cpu_share + STALL_ACTIVITY * (1.0 - cpu_share)
    )
    return ExecutionState(
        duration_s=duration,
        cpu_share=cpu_share,
        l3_rate_per_mcycles=l3_rate,
        effective_activity=effective_activity,
    )


def job_duration_s(
    profile: BenchmarkProfile,
    spec: ChipSpec,
    freq_hz: float,
    nthreads: int = 1,
    shares_pmd: bool = False,
    contention: float = 1.0,
) -> float:
    """Wall-clock duration of a whole job at a fixed operating point.

    All threads of a homogeneous job finish together (same per-thread
    work, same state), so the job duration equals the thread duration.
    """
    return execution_state(
        profile, spec, freq_hz, nthreads, shares_pmd, contention
    ).duration_s


def multi_instance_performance_ratio(
    profile: BenchmarkProfile, spec: ChipSpec, freq_hz: Optional[int] = None
) -> float:
    """Fig. 8 metric: solo time divided by time under full-chip copies.

    Runs one instance per core (replicated semantics even for parallel
    programs, matching the paper's "multiple copies of the same program
    on all cores" protocol) and reports T(1 instance) / T(N instances).
    Memory-intensive programs land well below 1; CPU-intensive programs
    stay near 1.
    """
    from .contention import contention_factor  # local to avoid cycle noise

    freq = freq_hz if freq_hz is not None else spec.fmax_hz
    solo = execution_state(profile, spec, freq, nthreads=1).duration_s
    demand = bandwidth_demand_gbs(profile, spec, freq)
    crowd = contention_factor(spec, [demand] * spec.n_cores)
    crowded = execution_state(
        profile,
        spec,
        freq,
        nthreads=1,
        shares_pmd=True,
        contention=crowd,
    ).duration_s
    return solo / crowded
