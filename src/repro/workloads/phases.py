"""Phased benchmarks: programs whose class changes mid-run.

The paper's daemon explicitly handles processes that *change state* "from
CPU-intensive to memory-intensive and vice versa" (Section VI.A, case
(b) of the Fig. 13 flow): on a classification flip the clocks and the
rail retune in place, without migrations. Real programs do this —
alternating compute and data-movement phases — and prior work the paper
cites ([21], [22]) built whole DVFS policies around phase tracking.

This module models such programs: a :class:`PhasedBenchmark` strings
together existing profiles, each covering a fraction of the total work.
The simulator switches the active profile as progress crosses phase
boundaries, the PMU rates shift accordingly, and the daemon must notice
and retune — exactly the scenario the paper's case (b) covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..errors import ConfigurationError
from .profiles import BenchmarkProfile
from .suites import get_benchmark

#: Anything the simulator accepts as a process's behaviour description.
AnyBenchmark = Union[BenchmarkProfile, "PhasedBenchmark"]


@dataclass(frozen=True)
class WorkloadPhase:
    """One phase: a fraction of the total work behaving like a profile."""

    fraction: float
    profile: BenchmarkProfile

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"phase fraction must be in (0, 1], got {self.fraction}"
            )


@dataclass(frozen=True)
class PhasedBenchmark:
    """A program whose coarse-grain behaviour changes across phases.

    All phases must agree on the threading semantics (``parallel``).
    """

    name: str
    phases: Tuple[WorkloadPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError(f"{self.name}: needs at least 1 phase")
        total = sum(p.fraction for p in self.phases)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{self.name}: phase fractions sum to {total}, not 1"
            )
        kinds = {p.profile.parallel for p in self.phases}
        if len(kinds) != 1:
            raise ConfigurationError(
                f"{self.name}: phases mix parallel and replicated profiles"
            )

    # -- phase lookup ------------------------------------------------------

    def boundaries(self) -> List[float]:
        """Done-fraction boundaries between phases (exclusive of 0, 1)."""
        bounds: List[float] = []
        done = 0.0
        for phase in self.phases[:-1]:
            done += phase.fraction
            bounds.append(done)
        return bounds

    def profile_at(self, done_fraction: float) -> BenchmarkProfile:
        """Active profile once ``done_fraction`` of the work completed."""
        if done_fraction < 0.0:
            raise ConfigurationError("done_fraction must be >= 0")
        cumulative = 0.0
        for phase in self.phases:
            cumulative += phase.fraction
            if done_fraction < cumulative - 1e-12:
                return phase.profile
        return self.phases[-1].profile


def profile_at(benchmark: AnyBenchmark, done_fraction: float) -> BenchmarkProfile:
    """Active profile of any benchmark object at a progress point."""
    if isinstance(benchmark, PhasedBenchmark):
        return benchmark.profile_at(done_fraction)
    return benchmark


def phase_boundaries(benchmark: AnyBenchmark) -> List[float]:
    """Done-fraction phase boundaries (empty for static profiles)."""
    if isinstance(benchmark, PhasedBenchmark):
        return benchmark.boundaries()
    return []


def make_phased(
    name: str, parts: Sequence[Tuple[float, str]]
) -> PhasedBenchmark:
    """Build a phased benchmark from (fraction, profile-name) pairs."""
    return PhasedBenchmark(
        name=name,
        phases=tuple(
            WorkloadPhase(fraction, get_benchmark(profile_name))
            for fraction, profile_name in parts
        ),
    )


def _build_phased_registry() -> Dict[str, PhasedBenchmark]:
    """A few representative phased programs.

    * ``stream-compute`` — a solver alternating data sweeps (milc-like)
      with dense compute (namd-like);
    * ``setup-then-crunch`` — memory-bound initialization followed by a
      long CPU-bound kernel (the shape of many HPC codes);
    * ``compute-then-writeback`` — the reverse: compute then a long
      memory-bound output phase;
    * ``sawtooth`` — rapid alternation stressing the daemon's hysteresis.
    """
    return {
        phased.name: phased
        for phased in (
            make_phased(
                "stream-compute",
                [(0.25, "milc"), (0.25, "namd"),
                 (0.25, "milc"), (0.25, "namd")],
            ),
            make_phased(
                "setup-then-crunch", [(0.3, "mcf"), (0.7, "gamess")]
            ),
            make_phased(
                "compute-then-writeback", [(0.6, "povray"), (0.4, "lbm")]
            ),
            make_phased(
                "sawtooth",
                [(0.125, "CG"), (0.125, "EP")] * 4,
            ),
        )
    }


_PHASED_REGISTRY = _build_phased_registry()


def get_phased(name: str) -> PhasedBenchmark:
    """Look up a built-in phased benchmark."""
    if name not in _PHASED_REGISTRY:
        raise ConfigurationError(
            f"unknown phased benchmark {name!r}; known: "
            f"{sorted(_PHASED_REGISTRY)}"
        )
    return _PHASED_REGISTRY[name]


def resolve_benchmark(name: str) -> AnyBenchmark:
    """Look up a benchmark by name across both registries."""
    if name in _PHASED_REGISTRY:
        return _PHASED_REGISTRY[name]
    return get_benchmark(name)
