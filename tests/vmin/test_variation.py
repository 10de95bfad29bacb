"""Tests for the static core-to-core variation map (paper Fig. 4)."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.registry import model_for_spec
from repro.vmin.variation import make_variation_map


def max_core_offset_mv(spec):
    """Largest static offset the chip family's population allows, mV."""
    return model_for_spec(spec).variation.max_offset_mv


def pmd_offsets(variation, spec):
    """Each PMD's worst core offset, indexed by PMD."""
    return [
        variation.max_offset(spec.cores_of_pmd(pmd))
        for pmd in range(spec.n_pmds)
    ]


class TestPaperChip:
    def test_xgene2_seed0_pmd2_most_robust(self, spec2):
        # Fig. 4: PMD2 (cores 4, 5) has the largest safe region.
        offsets = pmd_offsets(make_variation_map(spec2, 0), spec2)
        assert offsets.index(min(offsets)) == 2

    def test_xgene2_seed0_pmd0_or_1_most_sensitive(self, spec2):
        offsets = pmd_offsets(make_variation_map(spec2, 0), spec2)
        assert offsets.index(max(offsets)) in (0, 1)

    def test_xgene2_span_within_30mv(self, spec2):
        # Section III.A: up to ~30 mV core-to-core on X-Gene 2.
        offsets = make_variation_map(spec2, 0).offsets_mv
        assert 20 <= max(offsets) - min(offsets) <= 30

    def test_xgene3_offsets_smaller(self, spec3):
        variation = make_variation_map(spec3, 0)
        assert max(variation.offsets_mv) <= max_core_offset_mv(spec3)
        assert max_core_offset_mv(spec3) < max_core_offset_mv(spec2_like())


def spec2_like():
    from repro.platform.specs import xgene2_spec

    return xgene2_spec()


class TestRandomChips:
    def test_offsets_bounded(self, spec3):
        for seed in range(1, 6):
            variation = make_variation_map(spec3, seed)
            limit = max_core_offset_mv(spec3)
            assert all(0 <= o <= limit for o in variation.offsets_mv)

    def test_one_offset_per_core(self, spec3):
        variation = make_variation_map(spec3, 3)
        assert len(variation.offsets_mv) == spec3.n_cores

    def test_deterministic_per_seed(self, spec2):
        assert make_variation_map(spec2, 5) == make_variation_map(spec2, 5)

    def test_seeds_differ(self, spec2):
        assert make_variation_map(spec2, 5) != make_variation_map(spec2, 6)


class TestQueries:
    def test_offset_of(self, spec2):
        variation = make_variation_map(spec2, 0)
        assert variation.offset_of(4) == variation.offsets_mv[4]

    def test_offset_out_of_range(self, spec2):
        variation = make_variation_map(spec2, 0)
        with pytest.raises(ConfigurationError):
            variation.offset_of(8)

    def test_max_offset_over_cores(self, spec2):
        variation = make_variation_map(spec2, 0)
        assert variation.max_offset([4, 5]) == max(
            variation.offsets_mv[4], variation.offsets_mv[5]
        )

    def test_max_offset_empty_is_zero(self, spec2):
        variation = make_variation_map(spec2, 0)
        assert variation.max_offset([]) == 0.0
