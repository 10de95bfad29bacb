"""Tests for the L3C-rate workload classifier (paper Section IV.B)."""

import pytest

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
