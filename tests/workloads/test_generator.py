"""Tests for the server workload generator (paper Section VI.B)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.generator import ServerWorkloadGenerator, Workload
from repro.workloads.suites import evaluation_pool, get_benchmark


@pytest.fixture
def workload32():
    return ServerWorkloadGenerator(max_cores=32, seed=1).generate(1800)


class TestGeneration:
    def test_jobs_generated(self, workload32):
        assert len(workload32) > 20

    def test_arrivals_inside_window(self, workload32):
        for job in workload32.jobs:
            assert 0 <= job.start_time_s <= workload32.duration_s

    def test_jobs_sorted_by_time(self, workload32):
        ordered = workload32.jobs_sorted()
        times = [j.start_time_s for j in ordered]
        assert times == sorted(times)

    def test_reproducible_by_seed(self):
        a = ServerWorkloadGenerator(max_cores=32, seed=9).generate(600)
        b = ServerWorkloadGenerator(max_cores=32, seed=9).generate(600)
        assert a.jobs == b.jobs

    def test_seeds_differ(self):
        a = ServerWorkloadGenerator(max_cores=32, seed=1).generate(600)
        b = ServerWorkloadGenerator(max_cores=32, seed=2).generate(600)
        assert a.jobs != b.jobs

    def test_pool_is_35_programs(self):
        # Section VI.B: 29 SPEC + 6 NPB.
        generator = ServerWorkloadGenerator(max_cores=32)
        assert len(generator.pool) == 35

    def test_benchmarks_come_from_pool(self, workload32):
        pool_names = {p.name for p in evaluation_pool()}
        assert {j.benchmark for j in workload32.jobs} <= pool_names


class TestCapacityGuarantee:
    """Section VI.B: never more active threads than cores."""

    @pytest.mark.parametrize("max_cores", [8, 32])
    def test_estimated_occupancy_within_cores(self, max_cores):
        workload = ServerWorkloadGenerator(
            max_cores=max_cores, seed=3
        ).generate(1200)
        horizon = int(workload.duration_s) + 2000
        occupancy = np.zeros(horizon)
        for job in workload.jobs:
            profile = get_benchmark(job.benchmark)
            est = profile.ref_time_s
            if profile.parallel and job.nthreads > 1:
                est /= job.nthreads * profile.parallel_efficiency
            lo = int(job.start_time_s)
            hi = min(horizon, int(np.ceil(job.start_time_s + 1.25 * est)))
            occupancy[lo:hi] += job.nthreads
        assert occupancy.max() <= max_cores

    def test_spec_jobs_single_threaded(self, workload32):
        for job in workload32.jobs:
            if not get_benchmark(job.benchmark).parallel:
                assert job.nthreads == 1

    def test_parallel_jobs_multi_threaded(self, workload32):
        parallel = [
            j
            for j in workload32.jobs
            if get_benchmark(j.benchmark).parallel
        ]
        assert parallel
        assert all(j.nthreads >= 2 for j in parallel)

    def test_threads_fit_small_machine(self):
        workload = ServerWorkloadGenerator(max_cores=8, seed=5).generate(
            600
        )
        assert all(j.nthreads <= 8 for j in workload.jobs)


class TestLoadPhases:
    def test_includes_idle_and_busy_stretches(self):
        # The phase mix gives heavy, light and idle periods (Fig. 15).
        workload = ServerWorkloadGenerator(max_cores=32, seed=0).generate(
            3600
        )
        per_minute = np.zeros(61)
        for job in workload.jobs:
            per_minute[int(job.start_time_s // 60)] += 1
        assert (per_minute == 0).any()
        assert per_minute.max() >= 3

    def test_total_threads_issued(self, workload32):
        assert workload32.total_threads_issued() >= len(workload32)


class TestValidation:
    def test_bad_core_count(self):
        with pytest.raises(ConfigurationError):
            ServerWorkloadGenerator(max_cores=0)

    def test_bad_duration(self):
        with pytest.raises(ConfigurationError):
            ServerWorkloadGenerator(max_cores=8).generate(0)

    def test_empty_draw_rejected(self):
        # Seed 0 places no job on 8 cores within 60 s.
        with pytest.raises(ConfigurationError, match="60 s on 8 cores at seed 0"):
            ServerWorkloadGenerator(max_cores=8, seed=0).generate(60)

    def test_bad_phase_bounds(self):
        with pytest.raises(ConfigurationError):
            ServerWorkloadGenerator(
                max_cores=8, phase_min_s=100, phase_max_s=50
            )

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerWorkloadGenerator(max_cores=8, pool=[])


class TestSerialization:
    def test_json_roundtrip(self):
        workload = ServerWorkloadGenerator(max_cores=8, seed=4).generate(
            400.0
        )
        restored = Workload.from_json(workload.to_json())
        assert restored == workload

    def test_roundtripped_workload_replays_identically(self):
        from repro.platform.chip import Chip
        from repro.platform.specs import xgene2_spec
        from repro.policies.governors import BaselinePolicy
        from repro.sim import ServerSystem

        original = ServerWorkloadGenerator(max_cores=8, seed=4).generate(
            300.0
        )
        restored = Workload.from_json(original.to_json())
        spec = xgene2_spec()
        a = ServerSystem(
            Chip(spec), original, BaselinePolicy()
        ).run()
        b = ServerSystem(
            Chip(spec), restored, BaselinePolicy()
        ).run()
        assert a.energy_j == b.energy_j
        assert a.makespan_s == b.makespan_s

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError):
            Workload.from_json('{"jobs": [{"nope": 1}]}')
