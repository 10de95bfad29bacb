"""Tests for the PMU counter model.

The simulator advances the registers through replay plans; the
per-interval steps they replace are the loop oracle's helpers, whose
checks are pinned here.
"""

import pytest

from repro.errors import ConfigurationError
from repro.platform.pmu import DROOP_BINS_MV, Pmu
from tests.replay_oracle import advance_core_counters, record_droops


@pytest.fixture
def pmu(spec2):
    return Pmu(spec2)


class TestCounters:
    def test_counters_start_at_zero(self, pmu):
        regs = pmu.core(0)
        assert (regs.cycles, regs.instructions, regs.l3_accesses) == (
            0.0,
            0.0,
            0.0,
        )

    def test_advance_accumulates(self, pmu):
        advance_core_counters(pmu.core(0), 1e6, 5e5, 3000)
        advance_core_counters(pmu.core(0), 1e6, 5e5, 1000)
        assert pmu.core(0).cycles == 2e6
        assert pmu.core(0).l3_accesses == 4000

    def test_negative_delta_rejected(self, pmu):
        with pytest.raises(ConfigurationError):
            advance_core_counters(pmu.core(0), -1, 0, 0)

    def test_core_out_of_range(self, pmu):
        with pytest.raises(ConfigurationError):
            pmu.core(8)


class TestDroopBins:
    def test_bins_match_paper(self):
        assert DROOP_BINS_MV == ((25, 35), (35, 45), (45, 55), (55, 65))

    def test_record_droops(self, pmu):
        record_droops(pmu, (45, 55), 12.5)
        assert pmu.droop_events[(45, 55)] == 12.5

    def test_unknown_bin_rejected(self, pmu):
        with pytest.raises(ConfigurationError):
            record_droops(pmu, (10, 20), 1)

    def test_negative_count_rejected(self, pmu):
        with pytest.raises(ConfigurationError):
            record_droops(pmu, (45, 55), -1)
