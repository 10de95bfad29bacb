"""Tests for the voltage-droop model (paper Fig. 6, Table II)."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.specs import FrequencyClass
from repro.vmin.droop import (
    DROOP_BINS_MV,
    DroopModel,
    droop_bin,
    droop_bin_index,
    droop_ladder,
)


class TestDroopBins:
    def test_bins_match_paper(self):
        assert DROOP_BINS_MV == ((25, 35), (35, 45), (45, 55), (55, 65))


class TestDroopLadder:
    def test_xgene3_ladder_matches_table2(self, spec3):
        assert droop_ladder(spec3) == (2, 4, 8, 16)

    def test_xgene2_ladder_collapses(self, spec2):
        assert droop_ladder(spec2) == (1, 2, 4)

    @pytest.mark.parametrize(
        "pmds,expected_bin",
        [
            (1, (25, 35)),
            (2, (25, 35)),
            (3, (35, 45)),
            (4, (35, 45)),
            (5, (45, 55)),
            (8, (45, 55)),
            (9, (55, 65)),
            (16, (55, 65)),
        ],
    )
    def test_xgene3_bins_match_table2(self, spec3, pmds, expected_bin):
        assert droop_bin(spec3, pmds) == expected_bin

    def test_zero_pmds_mildest_bin(self, spec3):
        assert droop_bin_index(spec3, 0) == 0

    def test_too_many_pmds_rejected(self, spec2):
        with pytest.raises(ConfigurationError):
            droop_bin_index(spec2, 5)


class TestDroopRates:
    """Fig. 6: the ceiling-bin pattern per core-allocation option."""

    def test_full_chip_populates_top_bin(self, spec3):
        model = DroopModel(spec3)
        rates = model.rates_per_mcycles(16, jitter=False)
        assert rates[(55, 65)] > 10

    def test_half_clustered_empty_top_bin(self, spec3):
        # 16T clustered = 8 PMDs: "almost zero droops" in [55, 65).
        model = DroopModel(spec3)
        rates = model.rates_per_mcycles(8, jitter=False)
        assert rates[(55, 65)] < 0.1
        assert rates[(45, 55)] > 10

    def test_quarter_clustered_empty_45_55(self, spec3):
        # 8T clustered = 4 PMDs: "almost zero droops" in [45, 55).
        model = DroopModel(spec3)
        rates = model.rates_per_mcycles(4, jitter=False)
        assert rates[(45, 55)] < 0.1

    def test_smaller_droops_more_frequent(self, spec3):
        model = DroopModel(spec3)
        rates = model.rates_per_mcycles(16, jitter=False)
        ordered = [rates[b] for b in DROOP_BINS_MV]
        assert ordered == sorted(ordered, reverse=True)

    def test_activity_scales_rates(self, spec3):
        model = DroopModel(spec3)
        low = model.rates_per_mcycles(16, activity=0.5, jitter=False)
        high = model.rates_per_mcycles(16, activity=1.5, jitter=False)
        assert high[(55, 65)] == pytest.approx(3 * low[(55, 65)])

    def test_bad_activity_rejected(self, spec3):
        with pytest.raises(ConfigurationError):
            DroopModel(spec3).rates_per_mcycles(16, activity=0.0)

    def test_jitter_is_deterministic_per_workload(self, spec3):
        model = DroopModel(spec3)
        a = model.rates_per_mcycles(16, workload_name="CG")
        b = model.rates_per_mcycles(16, workload_name="CG")
        c = model.rates_per_mcycles(16, workload_name="EP")
        assert a == b
        assert a != c

    def test_frequency_class_thins_rates(self, spec3):
        model = DroopModel(spec3)
        high = model.rates_per_mcycles(
            16, FrequencyClass.HIGH, jitter=False
        )
        skip = model.rates_per_mcycles(
            16, FrequencyClass.SKIP, jitter=False
        )
        assert skip[(55, 65)] < high[(55, 65)]
