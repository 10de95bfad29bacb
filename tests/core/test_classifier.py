"""Tests for the L3C-rate workload classifier (paper Section IV.B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import (
    DEFAULT_THRESHOLD,
    ClassificationSample,
    L3RateClassifier,
)
from repro.errors import ConfigurationError
from repro.sim.process import WorkloadClass


@pytest.fixture
def classifier():
    return L3RateClassifier()


class TestThreshold:
    def test_paper_threshold(self):
        assert DEFAULT_THRESHOLD == 3000.0

    def test_above_threshold_memory(self, classifier):
        assert classifier.decide(8000.0) is WorkloadClass.MEMORY_INTENSIVE

    def test_below_threshold_cpu(self, classifier):
        assert classifier.decide(100.0) is WorkloadClass.CPU_INTENSIVE

    def test_exactly_threshold_is_cpu(self, classifier):
        # Paper: "more than 3K" -> memory.
        assert classifier.decide(3000.0) is WorkloadClass.CPU_INTENSIVE

    def test_negative_rate_rejected(self, classifier):
        with pytest.raises(ConfigurationError):
            classifier.decide(-1.0)


def sample(classifier, rate, previous):
    """One monitor classification: the record the monitor keeps."""
    return ClassificationSample(
        rate, previous, classifier.decide(rate, previous)
    )


class TestHysteresis:
    def test_borderline_does_not_flap(self, classifier):
        # A rate oscillating just inside the band keeps the class.
        first = classifier.decide(3100.0, WorkloadClass.CPU_INTENSIVE)
        assert first is WorkloadClass.CPU_INTENSIVE  # < upper
        second = classifier.decide(2950.0, WorkloadClass.MEMORY_INTENSIVE)
        assert second is WorkloadClass.MEMORY_INTENSIVE  # > lower

    def test_clear_crossing_flips(self, classifier):
        flip = sample(classifier, 5000.0, WorkloadClass.CPU_INTENSIVE)
        assert flip.decided is WorkloadClass.MEMORY_INTENSIVE
        assert flip.changed

    def test_changed_flag_only_on_flip(self, classifier):
        stays = sample(classifier, 100.0, WorkloadClass.CPU_INTENSIVE)
        assert not stays.changed

    def test_unknown_never_counts_as_change(self, classifier):
        first = sample(classifier, 100.0, WorkloadClass.UNKNOWN)
        assert not first.changed

    def test_bounds(self):
        c = L3RateClassifier(threshold=3000.0, hysteresis=0.1)
        assert c.upper_bound == pytest.approx(3300.0)
        assert c.lower_bound == pytest.approx(2700.0)

    def test_zero_hysteresis_allowed(self):
        c = L3RateClassifier(hysteresis=0.0)
        assert c.upper_bound == c.lower_bound == c.threshold


class TestValidation:
    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            L3RateClassifier(threshold=0.0)

    def test_bad_hysteresis(self):
        with pytest.raises(ConfigurationError):
            L3RateClassifier(hysteresis=1.0)


class TestKeeps:
    @given(
        st.floats(0.0, 0.5),
        st.lists(
            st.sampled_from(list(WorkloadClass)), min_size=1, max_size=4
        ),
        st.lists(
            st.one_of(
                st.floats(0.0, 1e5),
                # Rates on and next to the bounds and the threshold.
                st.sampled_from(
                    [2850.0, 3000.0, 3150.0]
                ).flatmap(
                    lambda v: st.sampled_from(
                        [np.nextafter(v, 0.0), v, np.nextafter(v, 1e9)]
                    )
                ),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_keeps_is_decide_returning_the_class(
        self, hysteresis, classes, rates
    ):
        classifier = L3RateClassifier(hysteresis=hysteresis)
        grid = np.array([rates] * len(classes), dtype=float)
        kept = classifier.keeps(grid, classes)
        for row, previous in zip(kept.tolist(), classes):
            expected = [
                previous is not WorkloadClass.UNKNOWN
                and classifier.decide(rate, previous) is previous
                for rate in rates
            ]
            assert row == expected
