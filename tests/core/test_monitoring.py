"""Tests for the daemon's monitoring half (paper Section VI.A)."""

import pytest

from repro.core.monitoring import (
    MIN_WINDOW_CYCLES,
    MonitoringDaemon,
    kernel_module_reader,
)
from repro.errors import ConfigurationError
from repro.sim.process import SimProcess, WorkloadClass
from repro.workloads.suites import get_benchmark
from tests.perf_like_reader import PerfLikeReader
from tests.replay_oracle import advance_process_counters


class FakeSystem:
    """Minimal stand-in exposing running_processes() and a chip."""

    def __init__(self, processes, chip=None):
        self._processes = processes
        self.chip = chip

    def running_processes(self):
        return self._processes


def running_proc(pid, name, nthreads=1):
    proc = SimProcess(
        pid=pid,
        profile=get_benchmark(name),
        nthreads=nthreads,
        arrival_s=0.0,
    )
    proc.start(0.0, tuple(range(nthreads)))
    return proc


class TestSampling:
    def test_first_sample_only_snapshots(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        advance_process_counters(proc.counters, 5e6, 5e4)
        changes = monitor.sample(FakeSystem([proc]))
        assert changes == []
        assert proc.observed_class is WorkloadClass.UNKNOWN

    def test_classifies_after_window(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        advance_process_counters(proc.counters, 1e6, 1e4)
        monitor.sample(FakeSystem([proc]))  # snapshot
        advance_process_counters(proc.counters, 2e6, 2e4)  # 10000/1M cycles: memory
        changes = monitor.sample(FakeSystem([proc]))
        assert proc.observed_class is WorkloadClass.MEMORY_INTENSIVE
        assert len(changes) == 1

    def test_short_window_skipped(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        monitor.sample(FakeSystem([proc]))
        advance_process_counters(proc.counters, MIN_WINDOW_CYCLES / 2, 1e4)
        monitor.sample(FakeSystem([proc]))
        assert proc.observed_class is WorkloadClass.UNKNOWN

    def test_window_scales_with_threads(self):
        # A 4-thread process accumulates 4x cycles per wall second; the
        # window is per-thread.
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG", nthreads=4)
        monitor.sample(FakeSystem([proc]))
        advance_process_counters(proc.counters, 2e6, 2e4)  # only 0.5M cycles per thread
        monitor.sample(FakeSystem([proc]))
        assert proc.observed_class is WorkloadClass.UNKNOWN

    def test_unknown_to_cpu_not_reported_as_change(self):
        # New processes already run under CPU assumptions (fail-safe
        # default), so UNKNOWN -> CPU needs no replan.
        monitor = MonitoringDaemon()
        proc = running_proc(1, "namd")
        monitor.sample(FakeSystem([proc]))
        advance_process_counters(proc.counters, 2e6, 100)
        changes = monitor.sample(FakeSystem([proc]))
        assert proc.observed_class is WorkloadClass.CPU_INTENSIVE
        assert changes == []

    def test_class_flip_reported(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        monitor.sample(FakeSystem([proc]))
        advance_process_counters(proc.counters, 2e6, 2e4)
        monitor.sample(FakeSystem([proc]))  # -> memory
        advance_process_counters(proc.counters, 2e6, 100)  # now CPU-like phase
        changes = monitor.sample(FakeSystem([proc]))
        assert len(changes) == 1
        assert changes[0].sample.decided is WorkloadClass.CPU_INTENSIVE

    def test_forget_drops_state(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        monitor.sample(FakeSystem([proc]))
        monitor.forget(proc)
        advance_process_counters(proc.counters, 2e6, 2e4)
        changes = monitor.sample(FakeSystem([proc]))
        # After forget, the next sample is a fresh snapshot again.
        assert changes == []

    def test_samples_counted(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        monitor.sample(FakeSystem([proc]))
        advance_process_counters(proc.counters, 2e6, 2e4)
        monitor.sample(FakeSystem([proc]))
        assert monitor.samples_taken == 1


class TestReaders:
    def test_kernel_reader_exact(self):
        proc = running_proc(1, "CG")
        advance_process_counters(proc.counters, 123.0, 45.0)
        assert kernel_module_reader(proc) == (123.0, 45.0)

    def test_perf_reader_noisy(self):
        proc = running_proc(1, "CG")
        advance_process_counters(proc.counters, 1e6, 3e3)
        reader = PerfLikeReader(noise=0.03, seed=2)
        cycles, accesses = reader(proc)
        assert cycles != 1e6
        assert abs(cycles - 1e6) <= 3e4

    def test_perf_reader_validation(self):
        with pytest.raises(ConfigurationError):
            PerfLikeReader(noise=1.0)

    def test_noisy_reader_can_misclassify_borderline(self):
        # The paper's rationale for the kernel module: +/-3% noise near
        # the 3K threshold flips borderline classifications.
        monitor_noisy = MonitoringDaemon(reader=PerfLikeReader(0.03, seed=3))
        monitor_exact = MonitoringDaemon()
        decisions_noisy = set()
        decisions_exact = set()
        for trial in range(40):
            noisy_proc = running_proc(trial, "CG")
            exact_proc = running_proc(trial, "CG")
            for monitor, proc, out in (
                (monitor_noisy, noisy_proc, decisions_noisy),
                (monitor_exact, exact_proc, decisions_exact),
            ):
                monitor.sample(FakeSystem([proc]))
                # Rate right below the threshold boundary: 2990 / 1M.
                advance_process_counters(proc.counters, 2e6, 2 * 2990)
                monitor.sample(FakeSystem([proc]))
                out.add(proc.observed_class)
        assert decisions_exact == {WorkloadClass.CPU_INTENSIVE}
        assert len(decisions_noisy) == 2  # noise flips some trials


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            MonitoringDaemon(min_window_cycles=0)
