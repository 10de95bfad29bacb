"""Benches for the system evaluation: Tables I-IV and Figs. 14/15."""

from repro.experiments import (
    fig14_power_timeline as fig14,
    fig15_load_timeline as fig15,
    table1,
    table2,
    tables34,
)

from conftest import EVALUATION_DURATION_S, EVALUATION_SEED, run_once


def test_table1_platforms(benchmark):
    """Table I: platform parameters."""
    result = benchmark(table1.run)
    rows = result.rows()
    assert ("CPU", "8 cores", "32 cores") in rows
    benchmark.extra_info["parameters"] = len(rows)


def test_table2_policy(benchmark, policy3):
    """Table II: the droop-class policy table vs the paper's values."""
    result = benchmark(table2.run, "xgene3", policy3)
    deltas = [
        row.vmin_high_mv - row.paper_high_mv
        for row in result.rows
        if row.paper_high_mv
    ]
    assert all(abs(d) <= 40 for d in deltas)
    benchmark.extra_info["abs_delta_to_paper_mv"] = [
        abs(d) for d in deltas
    ]


def test_table3_xgene2(benchmark):
    """Table III: the four-configuration evaluation on X-Gene 2."""
    result = run_once(
        benchmark,
        tables34.run,
        "xgene2",
        duration_s=EVALUATION_DURATION_S,
        seed=EVALUATION_SEED,
    )
    rows = {r.config: r for r in result.evaluation.rows()}
    assert (
        rows["optimal"].energy_savings_pct
        > rows["placement"].energy_savings_pct
        > 0
    )
    benchmark.extra_info["energy_savings_pct"] = {
        name: round(rows[name].energy_savings_pct, 1)
        for name in ("safe_vmin", "placement", "optimal")
    }
    benchmark.extra_info["paper_energy_savings_pct"] = {
        "safe_vmin": 11.6,
        "placement": 18.3,
        "optimal": 25.2,
    }
    benchmark.extra_info["time_penalty_pct"] = round(
        rows["optimal"].time_penalty_pct, 1
    )
    benchmark.extra_info["paper_time_penalty_pct"] = 3.2


def test_table4_xgene3(benchmark):
    """Table IV: the four-configuration evaluation on X-Gene 3."""
    result = run_once(
        benchmark,
        tables34.run,
        "xgene3",
        duration_s=EVALUATION_DURATION_S,
        seed=EVALUATION_SEED,
    )
    rows = {r.config: r for r in result.evaluation.rows()}
    assert (
        rows["optimal"].energy_savings_pct
        > rows["placement"].energy_savings_pct
        > 0
    )
    benchmark.extra_info["energy_savings_pct"] = {
        name: round(rows[name].energy_savings_pct, 1)
        for name in ("safe_vmin", "placement", "optimal")
    }
    benchmark.extra_info["paper_energy_savings_pct"] = {
        "safe_vmin": 10.9,
        "placement": 13.4,
        "optimal": 22.3,
    }
    benchmark.extra_info["time_penalty_pct"] = round(
        rows["optimal"].time_penalty_pct, 1
    )
    benchmark.extra_info["paper_time_penalty_pct"] = 2.5


def test_fig14_power_timeline(benchmark):
    """Fig. 14: Baseline vs Optimal power traces."""
    result = run_once(
        benchmark,
        fig14.run,
        "xgene3",
        duration_s=EVALUATION_DURATION_S,
        seed=EVALUATION_SEED,
    )
    base, opt = result.average_power()
    assert opt < base
    benchmark.extra_info["avg_power_w"] = {
        "baseline": round(base, 2),
        "optimal": round(opt, 2),
    }
    benchmark.extra_info["paper_avg_power_w"] = {
        "baseline": 36.49,
        "optimal": 27.63,
    }


def test_fig15_load_timeline(benchmark):
    """Fig. 15: system load and process-class traces of Fig. 14's
    Optimal run, which is built untimed; the bench times the figure."""
    runs = fig14.run(
        "xgene3", duration_s=EVALUATION_DURATION_S, seed=EVALUATION_SEED
    )

    def figure():
        result = fig15.render(
            "xgene3", EVALUATION_DURATION_S, EVALUATION_SEED, None, fig14=runs
        )
        return result, result.format()

    result, text = benchmark(figure)
    assert "Figure 15" in text
    assert result.has_both_classes()
    assert 0 < result.peak_load() <= 32
    benchmark.extra_info["peak_busy_cores"] = result.peak_load()
