"""Tests for the one-shot reproduction report."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.orchestrator import run_experiments
from repro.platform.specs import xgene2_spec, xgene3_spec

GOLDEN = Path(__file__).parent.parent / "golden" / "run_all_xgene2.txt"


def _report(**kwargs) -> str:
    summary = run_experiments(["report"], duration_s=240.0, seed=5, **kwargs)
    return summary.outcome("report").output


@pytest.fixture(scope="module")
def quick_report():
    # Short evaluation windows.
    return _report()


class TestReport:
    def test_markdown_skeleton(self, quick_report):
        assert quick_report.startswith("# Reproduction report")
        assert "## Energy and performance" in quick_report
        assert "## Evaluation (Tables III/IV)" in quick_report

    def test_both_platforms_present(self, quick_report):
        assert f"### {xgene2_spec().name}" in quick_report
        assert f"### {xgene3_spec().name}" in quick_report

    def test_paper_references_embedded(self, quick_report):
        assert "[25.2 %]" in quick_report
        assert "[22.3 %]" in quick_report

    def test_fig8_rows(self, quick_report):
        assert "| namd |" in quick_report
        assert "| CG |" in quick_report

    def test_full_report_includes_characterization(self, quick_report):
        assert "## Characterization" in quick_report
        assert "droop bin" in quick_report

    def test_extra_policy_row_stays_out(self, quick_report):
        # Tables III/IV gain an ed2p row; the report keeps the paper's
        # four configurations, whose rows the extra replay leaves alone.
        assert _report(policy="ed2p") == quick_report

    def test_report_alone_prints_its_run_all_section(self, capsys):
        golden = GOLDEN.read_text(encoding="utf-8")
        section = golden[golden.index("== report ==\n"):]
        assert main(["report"]) == 0
        assert capsys.readouterr().out == section
