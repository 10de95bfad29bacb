"""Shape tests for the evaluation experiments (Tables III/IV, Figs. 14/15).

These replay shortened (10-minute) workloads so the suite stays fast; the
full 1-hour numbers live in the benchmark harness and EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    fig14_power_timeline as fig14,
    fig15_load_timeline as fig15,
    table1,
    table2,
    tables34,
)

DURATION = 600.0


@pytest.fixture(scope="module")
def table3_result():
    return tables34.run("xgene2", duration_s=DURATION, seed=5)


@pytest.fixture(scope="module")
def table4_result():
    return tables34.run("xgene3", duration_s=DURATION, seed=5)


class TestTables34:
    def test_savings_ordering_xgene2(self, table3_result):
        rows = {r.config: r for r in table3_result.evaluation.rows()}
        assert (
            rows["optimal"].energy_savings_pct
            > rows["placement"].energy_savings_pct
            > 0
        )
        assert rows["safe_vmin"].energy_savings_pct > 0

    def test_savings_ordering_xgene3(self, table4_result):
        rows = {r.config: r for r in table4_result.evaluation.rows()}
        assert (
            rows["optimal"].energy_savings_pct
            > rows["placement"].energy_savings_pct
            > 0
        )

    def test_optimal_magnitude_xgene2(self, table3_result):
        # Paper: 25.2% on the 1-hour workload; short workloads wander a
        # few points.
        rows = {r.config: r for r in table3_result.evaluation.rows()}
        assert 15 <= rows["optimal"].energy_savings_pct <= 35

    def test_optimal_magnitude_xgene3(self, table4_result):
        # Paper: 22.3%.
        rows = {r.config: r for r in table4_result.evaluation.rows()}
        assert 12 <= rows["optimal"].energy_savings_pct <= 32

    def test_time_penalty_small(self, table3_result, table4_result):
        # Paper: 3.2%/2.5% on 1-hour runs. Short runs can be gated by a
        # single stretched memory-intensive job, so the bound is looser
        # here (the 1-hour bench lands at ~4%/2%).
        for result in (table3_result, table4_result):
            rows = {r.config: r for r in result.evaluation.rows()}
            assert 0 <= rows["optimal"].time_penalty_pct <= 16

    def test_no_violations(self, table3_result, table4_result):
        for result in (table3_result, table4_result):
            for row in result.evaluation.rows():
                assert row.violations == 0

    def test_ed2p_savings_positive_for_optimal(self, table3_result):
        rows = {r.config: r for r in table3_result.evaluation.rows()}
        assert rows["optimal"].ed2p_savings_pct > 0

    def test_render_mentions_paper(self, table3_result):
        text = table3_result.format()
        assert "Table III" in text
        assert "25.2%" in text  # the paper column

    def test_paper_reference_lookup(self, table4_result):
        ref = table4_result.paper_reference()
        assert ref["optimal"]["energy_savings_pct"] == 22.3


@pytest.fixture(scope="module")
def fig14_result():
    return fig14.run("xgene3", duration_s=DURATION, seed=5)


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self, fig14_result):
        return fig14_result

    def test_optimal_average_below_baseline(self, result):
        base, opt = result.average_power()
        assert opt < base

    def test_reduction_in_plausible_band(self, result):
        assert 5 <= result.reduction_pct() <= 40

    def test_traces_cover_run(self, result):
        assert len(result.baseline_trace.samples) >= DURATION
        assert len(result.optimal_trace.samples) >= DURATION

    def test_series_buckets(self, result):
        series = result.series(bucket_s=60)
        assert len(series) >= int(DURATION) // 60
        for _, base_w, opt_w in series:
            assert base_w >= 0 and opt_w >= 0


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self, fig14_result):
        return fig15.render("xgene3", DURATION, 5, None, fig14=fig14_result)

    def test_formats_fig14_optimal_run(self, result, fig14_result):
        assert result.trace is fig14_result.optimal_trace
        assert result.max_cores == 32

    def test_load_has_phases(self, result):
        loads = result.load_moving_average()
        assert max(loads) > 2
        assert min(loads) < max(loads)

    def test_both_classes_observed(self, result):
        assert result.has_both_classes()

    def test_peak_within_capacity(self, result):
        assert 0 < result.peak_load() <= result.max_cores

    def test_series_rendering(self, result):
        text = result.format()
        assert "Figure 15" in text


class TestStaticTables:
    def test_table1_rows(self):
        result = table1.run()
        rendered = result.format()
        assert "8 cores" in rendered and "32 cores" in rendered
        assert "980 mV" in rendered and "870 mV" in rendered

    def test_table2_monotone(self):
        result = table2.run("xgene3")
        highs = [r.vmin_high_mv for r in result.rows]
        assert highs == sorted(highs)

    def test_table2_half_at_most_max(self):
        result = table2.run("xgene3")
        for row in result.rows:
            assert row.vmin_skip_mv <= row.vmin_high_mv

    def test_table2_near_paper(self):
        # Within ~40 mV of the published values (our table covers
        # single-thread worst-case variation; see EXPERIMENTS.md).
        result = table2.run("xgene3")
        for row in result.rows:
            assert row.paper_high_mv is not None
            assert abs(row.vmin_high_mv - row.paper_high_mv) <= 40
