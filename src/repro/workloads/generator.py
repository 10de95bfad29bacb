"""Random server-workload generator (Section VI.B).

The paper's evaluation drives both machines with a generated "typical
server workload": programs drawn randomly from a 35-program pool (all 29
SPEC CPU2006 plus the 6 NPB programs), issued at random time slots over a
configurable window, with alternating heavy / average / light / idle load
phases. The generator guarantees that the number of active threads never
exceeds the machine's core count, and a generated workload can be
replayed under different policies for apples-to-apples comparisons.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .profiles import BenchmarkProfile
from .suites import evaluation_pool


@dataclass(frozen=True)
class JobSpec:
    """One job of a generated workload."""

    job_id: int
    benchmark: str
    nthreads: int
    start_time_s: float


@dataclass(frozen=True)
class Workload:
    """A replayable job sequence for one machine."""

    jobs: Tuple[JobSpec, ...]
    duration_s: float
    max_cores: int
    seed: int

    def __len__(self) -> int:
        return len(self.jobs)

    def jobs_sorted(self) -> List[JobSpec]:
        """Jobs ordered by start time (ties by id)."""
        return sorted(self.jobs, key=lambda j: (j.start_time_s, j.job_id))


@dataclass(frozen=True)
class LoadPhase:
    """One load phase of the generated timeline."""

    start_s: float
    end_s: float
    #: Target core occupancy as a fraction of the machine's cores.
    level: float
    label: str


#: Longest workload the generator draws, in seconds: one day, 24 times
#: the paper's 1-hour evaluation. The occupancy array holds one entry
#: per second, so a huge finite duration would otherwise ask for
#: terabytes before the first job is placed.
MAX_DURATION_S = 86_400.0


#: Phase catalogue: (label, weight, min level, max level). The mix skews
#: toward light/average periods with occasional peaks and a few idle
#: stretches, resembling the paper's Fig. 15 load profile.
_PHASE_KINDS = (
    ("heavy", 0.2, 0.70, 1.00),
    ("average", 0.35, 0.35, 0.65),
    ("light", 0.3, 0.10, 0.30),
    ("idle", 0.15, 0.0, 0.0),
)


class ServerWorkloadGenerator:
    """Generates replayable server workloads from a program pool."""

    def __init__(
        self,
        max_cores: int,
        pool: Optional[Sequence[BenchmarkProfile]] = None,
        seed: int = 0,
        phase_min_s: float = 120.0,
        phase_max_s: float = 480.0,
    ):
        if max_cores < 1:
            raise ConfigurationError("max_cores must be >= 1")
        if phase_min_s <= 0 or phase_max_s < phase_min_s:
            raise ConfigurationError("invalid phase length bounds")
        self.max_cores = max_cores
        self.pool = list(pool) if pool is not None else evaluation_pool()
        if not self.pool:
            raise ConfigurationError("program pool is empty")
        self.seed = seed
        self.phase_min_s = phase_min_s
        self.phase_max_s = phase_max_s

    # -- public API -------------------------------------------------------------

    def rng_for(self) -> random.Random:
        """The generator's derived RNG stream.

        The stream is keyed on ``(seed, max_cores)`` so the same seed
        yields the same workload on the same machine size, while two
        machine sizes do not silently share draws. :meth:`generate`
        constructs exactly this stream when no ``rng`` is injected.
        """
        return random.Random(f"workload/{self.seed}/{self.max_cores}")

    def generate(
        self,
        duration_s: float = 3600.0,
        rng: Optional[random.Random] = None,
    ) -> Workload:
        """Generate one workload over ``duration_s`` seconds.

        ``rng`` injects an explicit random stream (tests use this to
        replay or perturb draws); by default each call derives the
        seed-keyed stream from :meth:`rng_for`, so repeated calls with
        the same configuration return identical workloads. A draw with
        no job raises :class:`ConfigurationError`: no evaluation has a
        baseline to compare against on an idle machine. So does a
        duration that is not finite and positive (``nan`` and ``inf``
        could size no occupancy array and end no phase loop) or that
        exceeds :data:`MAX_DURATION_S`.
        """
        if not 0 < duration_s < math.inf:
            raise ConfigurationError(
                f"duration must be finite and positive, got {duration_s!r}"
            )
        if duration_s > MAX_DURATION_S:
            raise ConfigurationError(
                f"duration must be at most {MAX_DURATION_S:.0f} s, "
                f"got {duration_s!r}"
            )
        if rng is None:
            rng = self.rng_for()
        phases = self._phases(rng, duration_s)
        occupancy = np.zeros(int(np.ceil(duration_s)) + 1, dtype=np.int64)
        jobs: List[JobSpec] = []
        job_id = 0
        for phase in phases:
            target = int(round(phase.level * self.max_cores))
            if target == 0:
                continue
            failures = 0
            while failures < 40:
                job = self._try_place(
                    rng, job_id, phase, target, occupancy, duration_s
                )
                if job is None:
                    failures += 1
                    continue
                jobs.append(job)
                job_id += 1
        if not jobs:
            raise ConfigurationError(
                f"no job arrives in {duration_s:g} s on {self.max_cores} "
                f"cores at seed {self.seed}; use a longer duration"
            )
        jobs.sort(key=lambda j: (j.start_time_s, j.job_id))
        return Workload(
            jobs=tuple(jobs),
            duration_s=duration_s,
            max_cores=self.max_cores,
            seed=self.seed,
        )

    # -- internals -------------------------------------------------------------

    def _phases(
        self, rng: random.Random, duration_s: float
    ) -> List[LoadPhase]:
        labels = [kind[0] for kind in _PHASE_KINDS]
        weights = [kind[1] for kind in _PHASE_KINDS]
        bounds = {kind[0]: (kind[2], kind[3]) for kind in _PHASE_KINDS}
        phases: List[LoadPhase] = []
        t = 0.0
        while t < duration_s:
            length = rng.uniform(self.phase_min_s, self.phase_max_s)
            end = min(duration_s, t + length)
            label = rng.choices(labels, weights=weights)[0]
            low, high = bounds[label]
            level = rng.uniform(low, high) if high > low else low
            phases.append(LoadPhase(t, end, level, label))
            t = end
        return phases

    def _thread_choices(self, profile: BenchmarkProfile) -> List[int]:
        if not profile.parallel:
            return [1]
        choices = [n for n in (2, 4, 8) if n <= max(2, self.max_cores // 4)]
        return choices or [2]

    def _estimate_duration_s(
        self, profile: BenchmarkProfile, nthreads: int
    ) -> float:
        # Coarse estimate at full speed; a 25% cushion absorbs the
        # slowdown of low-frequency policies so the never-oversubscribed
        # guarantee holds under every configuration.
        base = profile.ref_time_s
        if profile.parallel and nthreads > 1:
            base /= nthreads * profile.parallel_efficiency
        return 1.25 * base

    def _try_place(
        self,
        rng: random.Random,
        job_id: int,
        phase: LoadPhase,
        target_cores: int,
        occupancy: np.ndarray,
        duration_s: float,
    ) -> Optional[JobSpec]:
        profile = rng.choice(self.pool)
        nthreads = rng.choice(self._thread_choices(profile))
        if nthreads > target_cores:
            return None
        start = rng.uniform(phase.start_s, max(phase.start_s, phase.end_s - 1))
        est = self._estimate_duration_s(profile, nthreads)
        lo = int(start)
        hi = min(len(occupancy), int(np.ceil(start + est)) + 1)
        window = occupancy[lo:hi]
        # Phase-level target inside the phase; the hard machine-wide cap
        # (Section VI.B's generator guarantee) applies everywhere else.
        phase_hi = min(hi, int(np.ceil(phase.end_s)))
        if phase_hi > lo and (
            occupancy[lo:phase_hi].max(initial=0) + nthreads > target_cores
        ):
            return None
        if window.max(initial=0) + nthreads > self.max_cores:
            return None
        occupancy[lo:hi] += nthreads
        return JobSpec(
            job_id=job_id,
            benchmark=profile.name,
            nthreads=nthreads,
            start_time_s=round(start, 3),
        )
