"""Shape tests for the energy/performance experiments (Figs. 7-9, 11, 12)."""

import pytest

from repro.allocation import Allocation
from repro.experiments import (
    fig7_allocation_energy as fig7,
    fig8_contention as fig8,
    fig9_l3c_rates as fig9,
    fig11_energy as fig11,
    fig12_ed2p as fig12,
)
from repro.experiments.energy_runner import EnergyRunner
from repro.units import ghz
from repro.workloads.suites import get_benchmark


@pytest.fixture(scope="module")
def fig7_result():
    return fig7.run("xgene2")


class TestFig7:
    def test_span_matches_paper_shape(self, fig7_result):
        low, high = fig7_result.span()
        # Paper: -9.6% .. +14.2%.
        assert -14 <= low <= -5
        assert 9 <= high <= 20

    def test_cpu_intensive_prefer_clustered(self, fig7_result):
        by_name = {r.benchmark: r for r in fig7_result.rows}
        for name in ("namd", "EP", "povray", "gamess", "hmmer"):
            assert by_name[name].diff_pct < 0

    def test_memory_intensive_prefer_spreaded(self, fig7_result):
        by_name = {r.benchmark: r for r in fig7_result.rows}
        for name in ("CG", "FT", "mcf", "milc", "lbm"):
            assert by_name[name].diff_pct > 0

    def test_sorted_rows_cpu_first(self, fig7_result):
        ordered = fig7_result.sorted_rows()
        fractions = [r.mem_fraction for r in ordered]
        assert fractions == sorted(fractions)

    def test_diff_trend_follows_memory_intensity(self, fig7_result):
        ordered = fig7_result.sorted_rows()
        first_quarter = [r.diff_pct for r in ordered[:6]]
        last_quarter = [r.diff_pct for r in ordered[-6:]]
        assert max(first_quarter) < min(last_quarter)


@pytest.fixture(scope="module")
def fig8_result():
    return fig8.run("xgene3")


class TestFig8:
    def test_cg_ft_most_memory_intensive(self, fig8_result):
        # Paper: "CG and FT ... are the most memory-intensive".
        worst = fig8_result.most_memory_intensive(5)
        assert "CG" in worst
        assert "FT" in worst or "mcf" in worst

    def test_namd_ep_most_cpu_intensive(self, fig8_result):
        best = fig8_result.most_cpu_intensive(5)
        assert "namd" in best
        assert "EP" in best

    def test_memory_bound_collapse(self, fig8_result):
        assert fig8_result.ratio_of("CG") < 0.5
        assert fig8_result.ratio_of("namd") > 0.95

    def test_all_ratios_in_unit_interval(self, fig8_result):
        for row in fig8_result.rows:
            assert 0 < row.ratio <= 1.0


@pytest.fixture(scope="module")
def fig9_result():
    return fig9.run("xgene3")


class TestFig9:
    def test_threshold_separates_expected_sets(self, fig9_result):
        mem = set(fig9_result.memory_intensive_set())
        assert {"CG", "FT", "IS", "MG", "mcf", "milc", "lbm"} <= mem
        assert {"namd", "EP", "hmmer", "gamess", "povray"}.isdisjoint(mem)

    def test_classes_stable_across_thread_counts(self, fig9_result):
        # Fig. 9: same classification at 32, 16 and 8 threads.
        assert fig9_result.classes_stable()

    def test_rates_positive(self, fig9_result):
        assert all(r.rate_per_mcycles > 0 for r in fig9_result.rows)

    def test_three_thread_configs(self, fig9_result):
        counts = {r.nthreads for r in fig9_result.rows}
        assert counts == {32, 16, 8}


@pytest.fixture(scope="module")
def fig11_xgene2():
    return fig11.run("xgene2")


@pytest.fixture(scope="module")
def fig12_xgene2(fig11_xgene2):
    return fig12.run(fig11_xgene2)


@pytest.fixture(scope="module")
def fig12_xgene3():
    return fig12.run(fig11.run("xgene3"))


class TestFig11:
    def test_grid_complete(self, fig11_xgene2):
        # 5 benchmarks x 3 thread options x 3 frequencies.
        assert len(fig11_xgene2.cells) == 45

    def test_xgene2_09ghz_wins_energy(self, fig11_xgene2):
        # Paper: "significant energy savings for all cases at 0.9 GHz".
        # Reproduces at 8 and 4 threads; at 2 threads our fixed platform
        # power amortizes over too little work for the CPU-bound pair
        # (recorded as a deviation in EXPERIMENTS.md).
        for name in ("namd", "EP", "milc", "CG", "FT"):
            for nthreads in (8, 4):
                assert fig11_xgene2.best_frequency(
                    name, nthreads
                ) == ghz(0.9)
        for name in ("milc", "CG", "FT"):
            assert fig11_xgene2.best_frequency(name, 2) == ghz(0.9)

    def test_memory_intensive_gain_at_half_clock(self, fig11_xgene2):
        # milc/CG/FT: 1.2 GHz beats 2.4 GHz on energy.
        for name in ("milc", "CG", "FT"):
            assert fig11_xgene2.energy_of(
                name, 8, ghz(1.2)
            ) < fig11_xgene2.energy_of(name, 8, ghz(2.4))

    def test_cpu_intensive_flat_at_half_clock(self, fig11_xgene2):
        # namd/EP: no observable gain from 2.4 -> 1.2 GHz.
        for name in ("namd", "EP"):
            assert fig11_xgene2.energy_of(
                name, 8, ghz(1.2)
            ) >= 0.95 * fig11_xgene2.energy_of(name, 8, ghz(2.4))

    def test_safe_voltage_used(self, fig11_xgene2, spec2):
        assert all(
            c.measurement.voltage_mv < spec2.nominal_voltage_mv
            for c in fig11_xgene2.cells
        )


class TestFig12:
    def test_projects_every_fig11_measurement(self, fig11_xgene2, fig12_xgene2):
        assert fig12_xgene2.platform == fig11_xgene2.platform
        assert [c.measurement for c in fig12_xgene2.cells] == [
            c.measurement for c in fig11_xgene2.cells
        ]

    def test_cpu_intensive_best_at_max_frequency(self, fig12_xgene2):
        for name in ("namd", "EP"):
            for nthreads in (8, 4, 2):
                assert fig12_xgene2.best_frequency(
                    name, nthreads
                ) == ghz(2.4)

    def test_memory_intensive_best_at_low_frequency(self, fig12_xgene2):
        # The inversion reproduces fully in the contended max-threads
        # regime (see EXPERIMENTS.md for the low-thread-count deviation).
        for name in ("milc", "CG", "FT"):
            assert fig12_xgene2.best_frequency(name, 8) != ghz(2.4)

    def test_lines_converge_with_memory_intensity(self, fig12_xgene2):
        # Even where the inversion does not flip outright, the relative
        # ED2P cost of the half clock shrinks dramatically from the
        # CPU-intensive to the memory-intensive end.
        def tilt(name):
            return fig12_xgene2.ed2p_of(
                name, 4, ghz(1.2)
            ) / fig12_xgene2.ed2p_of(name, 4, ghz(2.4))

        assert tilt("CG") < 0.45 * tilt("namd")
        assert tilt("milc") < 0.45 * tilt("EP")

    def test_xgene3_same_split(self, fig12_xgene3):
        for name in ("namd", "EP"):
            assert fig12_xgene3.best_frequency(name, 32) == ghz(3.0)
        for name in ("milc", "CG", "FT"):
            assert fig12_xgene3.best_frequency(name, 32) == ghz(1.5)


class TestEnergyRunner:
    def test_same_frequency_class_same_safe_voltage(self, spec2):
        runner = EnergyRunner(spec2)
        profile = get_benchmark("CG")
        steps = [
            f
            for f in spec2.frequency_steps()
            if spec2.frequency_class(f) == spec2.frequency_class(spec2.fmax_hz)
        ]
        assert len(steps) >= 2
        first = runner.safe_voltage_mv(
            profile, 4, Allocation.CLUSTERED, steps[0]
        )
        second = runner.safe_voltage_mv(
            profile, 4, Allocation.CLUSTERED, steps[1]
        )
        assert first == second

    def test_normalization_only_for_replicated(self, spec3):
        runner = EnergyRunner(spec3)
        spec_run = runner.measure(
            get_benchmark("milc"), 4, Allocation.SPREADED
        )
        npb_run = runner.measure(
            get_benchmark("CG"), 4, Allocation.SPREADED
        )
        assert spec_run.normalized_energy_j == pytest.approx(
            spec_run.energy_j / 4
        )
        assert npb_run.normalized_energy_j == npb_run.energy_j

    def test_nominal_vs_safe_voltage(self, spec3):
        runner = EnergyRunner(spec3)
        nominal = runner.measure(
            get_benchmark("CG"), 8, Allocation.SPREADED, voltage="nominal"
        )
        safe = runner.measure(
            get_benchmark("CG"), 8, Allocation.SPREADED, voltage="safe"
        )
        assert safe.voltage_mv < nominal.voltage_mv
        assert safe.energy_j < nominal.energy_j
        assert safe.duration_s == nominal.duration_s

    def test_frequency_grid_per_platform(self, spec2, spec3):
        grid2 = EnergyRunner(spec2).frequency_grid()
        grid3 = EnergyRunner(spec3).frequency_grid()
        assert set(grid2) == {"max", "half", "divide"}
        assert set(grid3) == {"max", "half"}

    def test_thread_grid(self, spec3):
        assert EnergyRunner(spec3).thread_grid() == {
            "max": 32,
            "half": 16,
            "quarter": 8,
        }

    def test_unknown_voltage_mode(self, spec3):
        from repro.errors import ConfigurationError

        runner = EnergyRunner(spec3)
        with pytest.raises(ConfigurationError):
            runner.measure(
                get_benchmark("CG"), 8, Allocation.SPREADED,
                voltage="hopeful",
            )
