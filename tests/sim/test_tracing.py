"""Tests for time-series tracing (paper Figs. 14/15)."""

import pytest

from repro.errors import SimulationError
from repro.sim.tracing import TimelineTrace, TraceSample, moving_average


def sample(t, power=10.0, busy=4, cpu=1, mem=1):
    return TraceSample(
        time_s=t,
        power_w=power,
        busy_cores=busy,
        running_processes=cpu + mem,
        cpu_intensive=cpu,
        memory_intensive=mem,
        voltage_mv=870,
        mean_active_freq_hz=3e9,
    )


class TestTimelineTrace:
    def test_append_and_series(self):
        trace = TimelineTrace()
        trace.append(sample(0.0, power=10.0))
        trace.append(sample(1.0, power=20.0))
        assert trace.power_series() == [10.0, 20.0]
        assert [s.time_s for s in trace.samples] == [0.0, 1.0]
        assert trace.load_series() == [4, 4]

    def test_time_ordering_enforced(self):
        trace = TimelineTrace()
        trace.append(sample(5.0))
        with pytest.raises(SimulationError):
            trace.append(sample(4.0))

    def test_equal_time_samples_are_legal(self):
        # Regression: the docstring promises *non-decreasing* times, so
        # two samples at the same instant (e.g. a controller-forced
        # sample coinciding with the periodic one) must be accepted.
        trace = TimelineTrace()
        trace.append(sample(1.0, power=10.0))
        trace.append(sample(1.0, power=12.0))
        assert [s.time_s for s in trace.samples] == [1.0, 1.0]
        assert trace.power_series() == [10.0, 12.0]

    def test_nan_time_rejected(self):
        trace = TimelineTrace()
        trace.append(sample(0.0))
        with pytest.raises(SimulationError):
            trace.append(sample(float("nan")))

    def test_nan_time_rejected_on_empty_trace(self):
        trace = TimelineTrace()
        with pytest.raises(SimulationError):
            trace.append(sample(float("nan")))

    def test_average_and_peak_power(self):
        trace = TimelineTrace()
        for t, p in enumerate((10.0, 30.0, 20.0)):
            trace.append(sample(float(t), power=p))
        assert trace.average_power_w() == pytest.approx(20.0)
        assert trace.peak_power_w() == 30.0

    def test_empty_trace_stats(self):
        trace = TimelineTrace()
        assert trace.average_power_w() == 0.0
        assert trace.peak_power_w() == 0.0

    def test_class_series(self):
        trace = TimelineTrace()
        trace.append(sample(0.0, cpu=3, mem=2))
        assert trace.class_series() == [(3, 2)]

    def test_bad_period(self):
        with pytest.raises(SimulationError):
            TimelineTrace(period_s=0)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        assert moving_average([1.0, 2.0, 3.0], 1) == [1.0, 2.0, 3.0]

    def test_trailing_window(self):
        result = moving_average([2.0, 4.0, 6.0, 8.0], 2)
        assert result == [2.0, 3.0, 5.0, 7.0]

    def test_warmup_uses_available(self):
        result = moving_average([4.0, 8.0], 60)
        assert result == [4.0, 6.0]

    def test_bad_window(self):
        with pytest.raises(SimulationError):
            moving_average([1.0], 0)

    def test_constant_series_unchanged(self):
        assert moving_average([5.0] * 10, 3) == [5.0] * 10
