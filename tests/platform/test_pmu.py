"""Tests for the PMU counter model.

The simulator advances the droop bins through its droop plan; the
per-interval step it replaces is the loop oracle's helper, whose checks
are pinned here.
"""

import pytest

from repro.errors import ConfigurationError
from repro.platform.pmu import DROOP_BINS_MV, Pmu
from tests.replay_oracle import record_droops


@pytest.fixture
def pmu(spec2):
    return Pmu(spec2)


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
