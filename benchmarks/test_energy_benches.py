"""Benches for the energy/performance studies: Figs. 7, 8, 9, 11, 12."""

from repro.experiments import (
    fig7_allocation_energy as fig7,
    fig8_contention as fig8,
    fig9_l3c_rates as fig9,
    fig11_energy as fig11,
    fig12_ed2p as fig12,
)
from repro.units import ghz

from conftest import run_once


def test_fig7_allocation_energy(benchmark):
    """Fig. 7: clustered vs spreaded 4T energy on X-Gene 2."""
    result = benchmark(fig7.run, "xgene2")
    low, high = result.span()
    assert low < 0 < high
    benchmark.extra_info["span_pct"] = (round(low, 1), round(high, 1))
    benchmark.extra_info["paper_span_pct"] = (-9.6, 14.2)


def test_fig8_contention_ratios(benchmark):
    """Fig. 8: full-chip multiprogramming ratios."""
    result = benchmark(fig8.run, "xgene3")
    assert result.ratio_of("CG") < 0.5
    assert result.ratio_of("namd") > 0.95
    benchmark.extra_info["ratio_CG"] = round(result.ratio_of("CG"), 3)
    benchmark.extra_info["ratio_namd"] = round(result.ratio_of("namd"), 3)


def test_fig9_l3c_rates(benchmark):
    """Fig. 9: classification rates and the 3K threshold."""
    result = benchmark(fig9.run, "xgene3")
    assert result.classes_stable()
    mem = result.memory_intensive_set()
    assert "CG" in mem and "namd" not in mem
    benchmark.extra_info["memory_intensive_count"] = len(mem)
    benchmark.extra_info["rate_CG_32T"] = round(result.rate_of("CG", 32))
    benchmark.extra_info["rate_namd_32T"] = round(
        result.rate_of("namd", 32), 1
    )


def test_fig11_energy_xgene2(benchmark):
    """Fig. 11 (top): the X-Gene 2 energy grid at per-config safe Vmin."""
    result = run_once(benchmark, fig11.run, "xgene2")
    assert result.best_frequency("CG", 8) == ghz(0.9)
    assert result.energy_of("milc", 8, ghz(1.2)) < result.energy_of(
        "milc", 8, ghz(2.4)
    )
    benchmark.extra_info["energy_CG_8T_by_freq_j"] = {
        "2.4GHz": round(result.energy_of("CG", 8, ghz(2.4)), 1),
        "1.2GHz": round(result.energy_of("CG", 8, ghz(1.2)), 1),
        "0.9GHz": round(result.energy_of("CG", 8, ghz(0.9)), 1),
    }


def test_fig11_energy_xgene3(benchmark):
    """Fig. 11 (bottom): the X-Gene 3 energy grid."""
    result = run_once(benchmark, fig11.run, "xgene3")
    assert result.energy_of("CG", 32, ghz(1.5)) < result.energy_of(
        "CG", 32, ghz(3.0)
    )
    assert result.best_frequency("namd", 32) == ghz(3.0)
    benchmark.extra_info["energy_CG_32T_by_freq_j"] = {
        "3GHz": round(result.energy_of("CG", 32, ghz(3.0)), 1),
        "1.5GHz": round(result.energy_of("CG", 32, ghz(1.5)), 1),
    }


def _fig12(platform):
    """Fig. 12 as a run makes it: Fig. 11's sweep, then its ED2P."""
    return fig12.run(fig11.run(platform))


def test_fig12_ed2p_xgene2(benchmark):
    """Fig. 12 (top): ED2P inversion between the workload classes."""
    result = run_once(benchmark, _fig12, "xgene2")
    assert result.best_frequency("namd", 8) == ghz(2.4)
    assert result.best_frequency("CG", 8) == ghz(0.9)
    benchmark.extra_info["best_freq_namd_8T"] = "2.4GHz"
    benchmark.extra_info["best_freq_CG_8T"] = "0.9GHz"


def test_fig12_ed2p_xgene3(benchmark):
    """Fig. 12 (bottom): the same inversion on X-Gene 3."""
    result = run_once(benchmark, _fig12, "xgene3")
    assert result.best_frequency("EP", 32) == ghz(3.0)
    assert result.best_frequency("FT", 32) == ghz(1.5)
    benchmark.extra_info["best_freq_EP_32T"] = "3GHz"
    benchmark.extra_info["best_freq_FT_32T"] = "1.5GHz"
