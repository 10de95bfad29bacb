"""Tests for the process lifecycle model.

Progress and counter accumulation run through replay plans; the
per-interval steps they replace are the loop oracle's helpers, whose
checks are pinned here.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.process import ProcessState, SimProcess, WorkloadClass
from repro.workloads.suites import get_benchmark
from tests.replay_oracle import advance_process_counters, progress


@pytest.fixture
def proc():
    return SimProcess(
        pid=1, profile=get_benchmark("CG"), nthreads=4, arrival_s=10.0
    )


class TestLifecycle:
    def test_starts_queued(self, proc):
        assert proc.state is ProcessState.QUEUED
        assert not proc.is_running

    def test_start(self, proc):
        proc.start(12.0, (0, 1, 2, 3))
        assert proc.is_running
        assert proc.start_s == 12.0
        assert proc.cores == (0, 1, 2, 3)

    def test_start_needs_matching_cores(self, proc):
        with pytest.raises(SimulationError):
            proc.start(12.0, (0, 1))

    def test_double_start_rejected(self, proc):
        proc.start(12.0, (0, 1, 2, 3))
        with pytest.raises(SimulationError):
            proc.start(13.0, (0, 1, 2, 3))

    def test_finish(self, proc):
        proc.start(12.0, (0, 1, 2, 3))
        proc.finish(50.0)
        assert proc.state is ProcessState.DONE
        assert proc.cores == ()
        assert proc.remaining_fraction == 0.0
        assert proc.finish_s - proc.arrival_s == 40.0

    def test_finish_before_start_rejected(self, proc):
        with pytest.raises(SimulationError):
            proc.finish(20.0)


class TestMigration:
    def test_migrate_counts(self, proc):
        proc.start(12.0, (0, 1, 2, 3))
        proc.migrate((4, 5, 6, 7))
        assert proc.cores == (4, 5, 6, 7)
        assert proc.migrations == 1

    def test_same_cores_not_counted(self, proc):
        proc.start(12.0, (0, 1, 2, 3))
        proc.migrate((0, 1, 2, 3))
        assert proc.migrations == 0

    def test_migrate_requires_running(self, proc):
        with pytest.raises(SimulationError):
            proc.migrate((0, 1, 2, 3))

    def test_migrate_core_count_checked(self, proc):
        proc.start(12.0, (0, 1, 2, 3))
        with pytest.raises(SimulationError):
            proc.migrate((0, 1))


class TestProgress:
    def test_progress_consumes_work(self, proc):
        progress(proc, 0.3)
        assert proc.remaining_fraction == pytest.approx(0.7)

    def test_progress_clamps_at_zero(self, proc):
        progress(proc, 1.5)
        assert proc.remaining_fraction == 0.0

    def test_negative_progress_rejected(self, proc):
        with pytest.raises(SimulationError):
            progress(proc, -0.1)


class TestCountersAndClass:
    def test_counters_accumulate(self, proc):
        advance_process_counters(proc.counters, 1e6, 4e3)
        advance_process_counters(proc.counters, 1e6, 2e3)
        assert proc.counters.cycles == 2e6
        assert proc.counters.l3_accesses == 6e3

    def test_counter_deltas_validated(self, proc):
        with pytest.raises(SimulationError):
            advance_process_counters(proc.counters, -1, 0)

    def test_reference_class_memory(self, proc):
        assert proc.reference_class is WorkloadClass.MEMORY_INTENSIVE

    def test_reference_class_cpu(self):
        proc = SimProcess(
            pid=2,
            profile=get_benchmark("namd"),
            nthreads=1,
            arrival_s=0.0,
        )
        assert proc.reference_class is WorkloadClass.CPU_INTENSIVE

    def test_observed_class_starts_unknown(self, proc):
        assert proc.observed_class is WorkloadClass.UNKNOWN

    def test_identity_hashing(self, proc):
        other = SimProcess(
            pid=1, profile=proc.profile, nthreads=4, arrival_s=10.0
        )
        assert proc != other
        assert len({proc, other}) == 2
