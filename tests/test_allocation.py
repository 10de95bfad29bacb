"""Tests for clustered/spreaded core allocation (paper Fig. 2)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import (
    Allocation,
    FreeCores,
    clustered_cores,
    cores_for,
    pick_free_cores,
    spreaded_cores,
    utilized_pmd_count,
)
from repro.errors import ConfigurationError, PlacementError
from repro.platform.specs import get_spec, xgene2_spec
from tests.allocation_oracle import greedy_pick

SPEC_XL = get_spec("xgene3-xl")
#: Free-core subsets of the 64-core chip, drawn as bit masks so dense and
#: sparse occupancy patterns are both common.
XL_FREE_SUBSETS = st.integers(0, (1 << SPEC_XL.n_cores) - 1).map(
    lambda mask: [c for c in range(SPEC_XL.n_cores) if mask >> c & 1]
)


def _outcome(pick, *args):
    """``pick(*args)``, or :class:`PlacementError` when it raises one."""
    try:
        return pick(*args)
    except PlacementError:
        return PlacementError


class TestClustered:
    def test_consecutive_cores(self, spec2):
        assert clustered_cores(spec2, 4) == (0, 1, 2, 3)

    def test_pmd_count_is_ceil_half(self, spec2):
        assert utilized_pmd_count(spec2, 1, Allocation.CLUSTERED) == 1
        assert utilized_pmd_count(spec2, 2, Allocation.CLUSTERED) == 1
        assert utilized_pmd_count(spec2, 3, Allocation.CLUSTERED) == 2
        assert utilized_pmd_count(spec2, 4, Allocation.CLUSTERED) == 2

    def test_xgene3_16t_clustered_uses_8_pmds(self, spec3):
        # Table II: 16T(clustered) -> 8 PMDs.
        assert utilized_pmd_count(spec3, 16, Allocation.CLUSTERED) == 8


class TestSpreaded:
    def test_one_thread_per_pmd(self, spec2):
        cores = spreaded_cores(spec2, 4)
        assert cores == (0, 2, 4, 6)
        assert len({spec2.pmd_of_core(c) for c in cores}) == 4

    def test_xgene3_16t_spreaded_uses_16_pmds(self, spec3):
        # Table II: 16T(spreaded) -> 16 PMDs.
        assert utilized_pmd_count(spec3, 16, Allocation.SPREADED) == 16

    def test_overflow_fills_second_cores(self, spec2):
        cores = spreaded_cores(spec2, 6)
        assert set(cores) == {0, 2, 4, 6, 1, 3}

    def test_full_chip_equals_clustered(self, spec2):
        assert set(spreaded_cores(spec2, 8)) == set(
            clustered_cores(spec2, 8)
        )


class TestCoresFor:
    def test_dispatch(self, spec2):
        assert cores_for(spec2, 2, Allocation.CLUSTERED) == (0, 1)
        assert cores_for(spec2, 2, Allocation.SPREADED) == (0, 2)

    def test_nthreads_bounds(self, spec2):
        with pytest.raises(ConfigurationError):
            cores_for(spec2, 0, Allocation.CLUSTERED)
        with pytest.raises(ConfigurationError):
            cores_for(spec2, 9, Allocation.CLUSTERED)


class TestPickFreeCores:
    def test_clustered_prefers_partially_used_pmds(self, spec2):
        # Core 1 is busy; clustered should pick its sibling (core 0)
        # before opening a fresh PMD.
        free = [0, 2, 3, 4, 5, 6, 7]
        chosen = pick_free_cores(spec2, free, 1, Allocation.CLUSTERED)
        assert chosen == (0,)

    def test_clustered_packs_pairs(self, spec2):
        chosen = pick_free_cores(
            spec2, range(8), 4, Allocation.CLUSTERED
        )
        assert len({spec2.pmd_of_core(c) for c in chosen}) == 2

    def test_spreaded_prefers_fresh_pmds(self, spec2):
        # Cores 0 and 1 busy (PMD0 full); the spreaded pick should use
        # fresh PMDs 1, 2, 3.
        free = [2, 3, 4, 5, 6, 7]
        chosen = pick_free_cores(spec2, free, 3, Allocation.SPREADED)
        assert len({spec2.pmd_of_core(c) for c in chosen}) == 3

    def test_spreaded_on_empty_chip(self, spec3):
        chosen = pick_free_cores(
            spec3, range(32), 16, Allocation.SPREADED
        )
        assert len({spec3.pmd_of_core(c) for c in chosen}) == 16

    def test_not_enough_free(self, spec2):
        with pytest.raises(PlacementError):
            pick_free_cores(spec2, [0, 1], 3, Allocation.CLUSTERED)

    def test_no_duplicates(self, spec3):
        chosen = pick_free_cores(
            spec3, range(32), 32, Allocation.CLUSTERED
        )
        assert len(set(chosen)) == 32

    def test_picks_only_free_cores(self, spec2):
        free = [1, 3, 5, 7]
        chosen = pick_free_cores(spec2, free, 2, Allocation.SPREADED)
        assert set(chosen) <= set(free)


@pytest.mark.parametrize("allocation", list(Allocation))
class TestPickFreeCoresValidation:
    def test_negative_core_id_rejected(self, spec2, allocation):
        with pytest.raises(ConfigurationError, match="core -1"):
            pick_free_cores(spec2, [-1, 3, 5], 1, allocation)

    def test_core_id_past_the_chip_rejected(self, spec2, allocation):
        with pytest.raises(ConfigurationError, match="core 8"):
            pick_free_cores(spec2, [3, 5, 8], 1, allocation)

    @pytest.mark.parametrize("nthreads", [0, -1])
    def test_fewer_than_one_thread_rejected(self, spec2, allocation, nthreads):
        with pytest.raises(ConfigurationError):
            pick_free_cores(spec2, range(8), nthreads, allocation)

    def test_too_few_free_cores_is_a_placement_error(self, spec2, allocation):
        with pytest.raises(PlacementError):
            pick_free_cores(spec2, range(8), 9, allocation)


class TestGreedyOracle:
    """The closed form picks what the per-thread greedy scan picks."""

    @pytest.mark.parametrize("cores_per_pmd", [1, 2, 4])
    @pytest.mark.parametrize("allocation", list(Allocation))
    def test_every_free_subset_of_an_8_core_chip(
        self, cores_per_pmd, allocation
    ):
        spec = dataclasses.replace(xgene2_spec(), cores_per_pmd=cores_per_pmd)
        for mask in range(1 << spec.n_cores):
            free = [c for c in range(spec.n_cores) if mask >> c & 1]
            for nthreads in range(1, spec.n_cores + 1):
                expected = _outcome(
                    greedy_pick, spec, free, nthreads, allocation
                )
                got = _outcome(
                    pick_free_cores, spec, free, nthreads, allocation
                )
                assert got == expected, (free, nthreads)

    @given(
        XL_FREE_SUBSETS,
        st.integers(1, SPEC_XL.n_cores),
        st.sampled_from(list(Allocation)),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_free_subsets_of_the_64_core_chip(
        self, free, nthreads, allocation
    ):
        assert _outcome(
            pick_free_cores, SPEC_XL, free, nthreads, allocation
        ) == _outcome(greedy_pick, SPEC_XL, free, nthreads, allocation)

    @given(
        XL_FREE_SUBSETS,
        st.lists(
            st.tuples(st.integers(1, 8), st.sampled_from(list(Allocation))),
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_successive_takes_match_picks_on_the_remaining_cores(
        self, free, picks
    ):
        cores = FreeCores(SPEC_XL, free)
        remaining = free
        for nthreads, allocation in picks:
            expected = _outcome(
                greedy_pick, SPEC_XL, remaining, nthreads, allocation
            )
            assert _outcome(cores.take, nthreads, allocation) == expected
            if expected is not PlacementError:
                remaining = [c for c in remaining if c not in expected]
        if remaining:
            left = cores.take(len(remaining), Allocation.CLUSTERED)
            assert sorted(left) == remaining
        with pytest.raises(PlacementError):
            cores.take(1, Allocation.SPREADED)
