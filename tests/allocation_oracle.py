"""Greedy core selection: the reference for :mod:`repro.allocation`.

The literal reading of the clustered/spreaded preferences: for every
thread it places, re-rank every free core and take the best. That costs
O(threads × cores) per pick. :class:`repro.allocation.FreeCores` computes
the same picks, in the same order, from a closed form; the tests check
the two against each other.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.allocation import Allocation
from repro.errors import PlacementError
from repro.platform.specs import ChipSpec
from repro.sim.process import SimProcess, WorkloadClass


def greedy_pick(
    spec: ChipSpec,
    free_cores: Sequence[int],
    nthreads: int,
    allocation: Allocation,
) -> Tuple[int, ...]:
    """Choose ``nthreads`` of ``free_cores`` one thread at a time."""
    free_set = set(free_cores)
    if len(free_set) < nthreads:
        raise PlacementError(
            f"need {nthreads} cores but only {len(free_set)} free"
        )
    chosen: List[int] = []
    for _ in range(nthreads):
        if allocation is Allocation.CLUSTERED:
            core = _best_clustered_core(spec, free_set)
        else:
            core = _best_spreaded_core(spec, free_set, chosen)
        chosen.append(core)
        free_set.remove(core)
    return tuple(chosen)


def greedy_plan(
    spec: ChipSpec, processes: Sequence[SimProcess]
) -> Dict[int, Tuple[int, ...]]:
    """The placement engine's assignments, one greedy pick per process.

    CPU-intensive and unclassified processes are clustered first, then
    memory-intensive ones spreaded, each group largest first; the free
    list is rebuilt after every process.
    """
    def order(memory: bool) -> List[SimProcess]:
        group = [
            p for p in processes
            if (p.observed_class is WorkloadClass.MEMORY_INTENSIVE) == memory
        ]
        return sorted(group, key=lambda p: (-p.nthreads, p.pid))

    free = list(range(spec.n_cores))
    assignments: Dict[int, Tuple[int, ...]] = {}
    for memory, allocation in (
        (False, Allocation.CLUSTERED),
        (True, Allocation.SPREADED),
    ):
        for process in order(memory):
            cores = greedy_pick(spec, free, process.nthreads, allocation)
            assignments[process.pid] = cores
            free = [c for c in free if c not in cores]
    return assignments


def _siblings(spec: ChipSpec, core: int) -> Tuple[int, ...]:
    pmd = spec.pmd_of_core(core)
    return tuple(c for c in spec.cores_of_pmd(pmd) if c != core)


def _best_clustered_core(spec: ChipSpec, free_set: Set[int]) -> int:
    # Prefer a free core whose sibling is already busy or chosen (its PMD
    # is utilized anyway), then the lowest-numbered free core.
    def rank(core: int) -> Tuple[int, int]:
        sibling_free = all(s in free_set for s in _siblings(spec, core))
        return (1 if sibling_free else 0, core)

    return min(free_set, key=rank)


def _best_spreaded_core(
    spec: ChipSpec, free_set: Set[int], chosen: Sequence[int]
) -> int:
    # Prefer a free core on a PMD whose siblings are all free and not
    # already chosen (a fresh PMD), then the lowest-numbered free core.
    chosen_pmds = {spec.pmd_of_core(c) for c in chosen}

    def rank(core: int) -> Tuple[int, int]:
        fresh = spec.pmd_of_core(core) not in chosen_pmds and all(
            s in free_set for s in _siblings(spec, core)
        )
        return (0 if fresh else 1, core)

    return min(free_set, key=rank)
