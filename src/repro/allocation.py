"""Core-allocation strategies: *clustered* vs *spreaded* threads (Fig. 2).

The paper studies two ways of placing N threads on a chip whose cores come
in pairs (PMDs):

* **clustered** — threads fill consecutive cores, occupying both cores of
  each PMD before touching the next one, so N threads utilize ceil(N/2)
  PMDs;
* **spreaded** — threads land on separate PMDs (one thread per PMD) as
  long as free PMDs exist, so N threads utilize min(N, n_pmds) PMDs.

Utilized-PMD count is the knob that matters for the voltage-droop
magnitude and therefore for the safe Vmin (Table II), while the choice
also changes L2 sharing inside a PMD, which is what makes clustered vs
spreaded a *workload-dependent* energy trade-off (Fig. 7).
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence, Tuple

from .errors import ConfigurationError, PlacementError
from .platform.specs import ChipSpec


class Allocation(enum.Enum):
    """Thread-to-core allocation strategy (paper Fig. 2)."""

    CLUSTERED = "clustered"
    SPREADED = "spreaded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def clustered_cores(spec: ChipSpec, nthreads: int) -> Tuple[int, ...]:
    """First ``nthreads`` cores in consecutive order (clustered, Fig. 2)."""
    _check_nthreads(spec, nthreads)
    return tuple(range(nthreads))


def spreaded_cores(spec: ChipSpec, nthreads: int) -> Tuple[int, ...]:
    """One thread per PMD while possible, then second cores (spreaded).

    With ``nthreads <= n_pmds`` every thread gets its own PMD (the paper's
    spreaded configuration). Beyond that, remaining threads fill the
    second core of each PMD in order, converging to the same full-chip
    placement as clustered when every core is needed.
    """
    _check_nthreads(spec, nthreads)
    first_cores = [spec.cores_of_pmd(p)[0] for p in range(spec.n_pmds)]
    second_cores = [
        core
        for p in range(spec.n_pmds)
        for core in spec.cores_of_pmd(p)[1:]
    ]
    return tuple((first_cores + second_cores)[:nthreads])


def cores_for(
    spec: ChipSpec, nthreads: int, allocation: Allocation
) -> Tuple[int, ...]:
    """Core ids for ``nthreads`` under the given allocation strategy."""
    if allocation is Allocation.CLUSTERED:
        return clustered_cores(spec, nthreads)
    if allocation is Allocation.SPREADED:
        return spreaded_cores(spec, nthreads)
    raise ConfigurationError(f"unknown allocation {allocation!r}")


def utilized_pmds(spec: ChipSpec, cores: Iterable[int]) -> Tuple[int, ...]:
    """Sorted PMD ids touched by the given cores."""
    return tuple(sorted({spec.pmd_of_core(c) for c in cores}))


def utilized_pmd_count(
    spec: ChipSpec, nthreads: int, allocation: Allocation
) -> int:
    """Number of PMDs utilized by ``nthreads`` under a strategy.

    Clustered: ceil(N / cores_per_pmd). Spreaded: min(N, n_pmds).
    """
    _check_nthreads(spec, nthreads)
    if allocation is Allocation.CLUSTERED:
        return math.ceil(nthreads / spec.cores_per_pmd)
    return min(nthreads, spec.n_pmds)


class FreeCores:
    """The free cores of a partly occupied chip, consumed pick by pick.

    A PMD is a contiguous core range, so both strategies' picks have a
    closed form over two ascending lists — the free cores of partly used
    PMDs, and the fully free PMDs:

    * clustered takes the free cores of partly used PMDs, then the cores
      of fully free PMDs, each in ascending order — every thread lands
      next to a busy or already chosen sibling when one exists,
      minimising newly utilized PMDs;
    * spreaded takes the first core of each fully free PMD in ascending
      order, then every other free core in ascending order — one thread
      per fresh PMD while one remains, maximising PMD isolation.

    Either way fully free PMDs are opened lowest first, so a take pops
    from the fronts of the two lists (a spreaded one also merges the
    opened PMDs' other cores into the first), and placing a whole
    running set through one instance — the daemon's planner — costs
    O(cores). Both orders equal a greedy scan that re-ranks every free
    core for every placed thread, which the tests keep as the oracle.
    """

    __slots__ = ("spec", "_partial", "_fresh")

    def __init__(self, spec: ChipSpec, free_cores: Iterable[int]):
        cores = sorted(set(free_cores))
        if cores and (cores[0] < 0 or cores[-1] >= spec.n_cores):
            bad = cores[0] if cores[0] < 0 else cores[-1]
            raise ConfigurationError(f"{spec.name}: core {bad} out of range")
        cpp = spec.cores_per_pmd
        pmd_free = [0] * spec.n_pmds
        for core in cores:
            pmd_free[core // cpp] += 1
        self.spec = spec
        #: Free cores of partly used PMDs, ascending.
        self._partial = [c for c in cores if pmd_free[c // cpp] < cpp]
        #: Fully free PMDs, ascending.
        self._fresh = [p for p, n in enumerate(pmd_free) if n == cpp]

    def take(self, nthreads: int, allocation: Allocation) -> Tuple[int, ...]:
        """Choose ``nthreads`` free cores under a strategy and occupy them.

        Raises :class:`ConfigurationError` for ``nthreads < 1`` or an
        unknown strategy, and :class:`PlacementError` when not enough
        cores are free.
        """
        if nthreads < 1:
            raise ConfigurationError(
                f"{self.spec.name}: cannot place {nthreads} threads"
            )
        cpp = self.spec.cores_per_pmd
        partial, fresh = self._partial, self._fresh
        nfree = len(partial) + cpp * len(fresh)
        if nfree < nthreads:
            raise PlacementError(
                f"need {nthreads} cores but only {nfree} free"
            )
        if allocation is Allocation.CLUSTERED:
            chosen = partial[:nthreads]
            del partial[:nthreads]
            while len(chosen) < nthreads:
                # The partly used PMDs are full: open the lowest fully
                # free one. Only the last PMD opened can stay partly used.
                base = fresh.pop(0) * cpp
                used = min(cpp, nthreads - len(chosen))
                chosen.extend(range(base, base + used))
                partial.extend(range(base + used, base + cpp))
        elif allocation is Allocation.SPREADED:
            opened = fresh[:nthreads]
            del fresh[:nthreads]
            chosen = [p * cpp for p in opened]
            # The opened PMDs' other cores are partly used from now on.
            for pmd in opened:
                partial.extend(range(pmd * cpp + 1, (pmd + 1) * cpp))
            partial.sort()
            rest = nthreads - len(chosen)
            chosen.extend(partial[:rest])
            del partial[:rest]
        else:
            raise ConfigurationError(f"unknown allocation {allocation!r}")
        return tuple(chosen)


def pick_free_cores(
    spec: ChipSpec,
    free_cores: Sequence[int],
    nthreads: int,
    allocation: Allocation,
) -> Tuple[int, ...]:
    """Choose ``nthreads`` cores out of ``free_cores`` under a strategy.

    Unlike :func:`cores_for`, this works on a partially-occupied chip;
    :class:`FreeCores` gives each strategy's order. Raises
    :class:`ConfigurationError` for a core id outside the chip or
    ``nthreads < 1``, and :class:`PlacementError` when not enough cores
    are free.
    """
    return FreeCores(spec, free_cores).take(nthreads, allocation)


def _check_nthreads(spec: ChipSpec, nthreads: int) -> None:
    if not 1 <= nthreads <= spec.n_cores:
        raise ConfigurationError(
            f"{spec.name}: cannot place {nthreads} threads on "
            f"{spec.n_cores} cores"
        )
