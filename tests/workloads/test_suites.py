"""Tests for the benchmark registry and suite composition."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.profiles import Suite
from repro.workloads.suites import (
    characterization_set,
    evaluation_pool,
    figure11_set,
    get_benchmark,
    suite_benchmarks,
)


def all_benchmarks():
    """Every registered profile, suite by suite."""
    return [p for suite in Suite for p in suite_benchmarks(suite)]


class TestComposition:
    def test_total_pool_size(self):
        assert len(all_benchmarks()) == 41  # 6 NPB + 29 SPEC + 6 PARSEC

    def test_npb_names(self):
        names = {p.name for p in suite_benchmarks(Suite.NPB)}
        assert names == {"CG", "EP", "FT", "IS", "LU", "MG"}

    def test_parsec_names(self):
        names = {p.name for p in suite_benchmarks(Suite.PARSEC)}
        assert names == {
            "swaptions", "blackscholes", "fluidanimate",
            "canneal", "bodytrack", "dedup",
        }

    def test_spec_has_29(self):
        spec = suite_benchmarks(Suite.SPEC_CPU2006)
        assert len(spec) == 29
        assert sum(1 for p in spec if p.spec_class == "INT") == 12
        assert sum(1 for p in spec if p.spec_class == "FP") == 17

    def test_characterization_set_is_25(self):
        # Section II.B: 6 NPB + 6 PARSEC + 13 SPEC.
        subset = characterization_set()
        assert len(subset) == 25
        suites = [p.suite for p in subset]
        assert suites.count(Suite.NPB) == 6
        assert suites.count(Suite.PARSEC) == 6
        assert suites.count(Suite.SPEC_CPU2006) == 13

    def test_evaluation_pool_is_35(self):
        # Section VI.B: 29 SPEC + 6 NPB.
        pool = evaluation_pool()
        assert len(pool) == 35
        assert not any(p.suite is Suite.PARSEC for p in pool)

    def test_figure11_set_order(self):
        names = [p.name for p in figure11_set()]
        assert names == ["namd", "EP", "milc", "CG", "FT"]

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            get_benchmark("doom")


class TestProfileSemantics:
    def test_spec_profiles_are_single_threaded(self):
        assert all(
            not p.parallel for p in suite_benchmarks(Suite.SPEC_CPU2006)
        )

    def test_npb_parsec_are_parallel(self):
        assert all(p.parallel for p in suite_benchmarks(Suite.NPB))
        assert all(p.parallel for p in suite_benchmarks(Suite.PARSEC))

    def test_extremes_match_paper(self):
        # Fig. 8 commentary: namd/EP most CPU-intensive, CG/FT most
        # memory-intensive.
        namd = get_benchmark("namd")
        cg = get_benchmark("CG")
        assert namd.mem_fraction < 0.05
        assert cg.mem_fraction > 0.7

    def test_threshold_separates_classes(self):
        # Fig. 9: the 3K threshold separates memory-intensive programs.
        mem = {
            p.name
            for p in all_benchmarks()
            if p.is_memory_intensive_reference()
        }
        assert {"CG", "FT", "mcf", "milc", "lbm", "libquantum"} <= mem
        assert {"namd", "EP", "hmmer", "povray", "gamess"}.isdisjoint(mem)

    def test_memory_intensity_correlates_with_l3_rate(self):
        pool = sorted(all_benchmarks(), key=lambda p: p.mem_fraction)
        low_quarter = pool[:10]
        high_quarter = pool[-10:]
        assert max(
            p.l3_rate_per_mcycles for p in low_quarter
        ) < min(p.l3_rate_per_mcycles for p in high_quarter)

    def test_vmin_deltas_bounded(self):
        # Section III.A: workload Vmin variation up to ~40 mV total.
        for profile in all_benchmarks():
            assert abs(profile.vmin_delta_mv) <= 20.0

    def test_cpu_cycles_plus_mem_time_consistent(self):
        for profile in all_benchmarks():
            recomputed = (
                profile.cpu_cycles / 3e9 + profile.mem_time_s
            )
            assert recomputed == pytest.approx(profile.ref_time_s)
