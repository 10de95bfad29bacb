"""Engine robustness: broken targets become findings, not tracebacks.

A file that fails to parse — or cannot even be decoded — must surface
as a structured RL000 diagnostic (file, reason) and a non-zero exit,
because pre-commit and CI consume the findings stream, not stderr.
"""

from __future__ import annotations

from pathlib import Path

from reprolint.cli import main
from reprolint.driver import analyze_file, analyze_paths
from reprolint.rules import ALL_RULES, PROGRAM_RULES


def _write_syntax_error(tmp_path: Path) -> Path:
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n    pass\n")
    return path


def _write_undecodable(tmp_path: Path) -> Path:
    path = tmp_path / "binary.py"
    path.write_bytes(b"\xff\xfe\x00 not utf-8")
    return path


class TestSyntaxErrors:
    def test_lint_file_reports_rl000_with_location(self, tmp_path):
        findings = analyze_file(_write_syntax_error(tmp_path), ALL_RULES)
        assert [f.rule_id for f in findings] == ["RL000"]
        finding = findings[0]
        assert "does not parse" in finding.message
        assert finding.line == 1
        assert finding.path.endswith("broken.py")

    def test_analyze_paths_reports_and_continues(self, tmp_path):
        _write_syntax_error(tmp_path)
        # Walked after broken.py: its finding shows the sweep went on.
        (tmp_path / "later.py").write_text(
            "x = 1  # reprolint: disable=RL001\n"
        )
        findings = analyze_paths(
            [tmp_path],
            ALL_RULES,
            program_rules=PROGRAM_RULES,
            root=tmp_path,
        )
        assert [(f.rule_id, Path(f.path).name) for f in findings] == [
            ("RL000", "broken.py"),
            ("RL000", "later.py"),
        ]
        assert "does not parse" in findings[0].message
        assert "without a reason" in findings[1].message

    def test_cli_exits_one(self, tmp_path, capsys):
        path = _write_syntax_error(tmp_path)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "RL000" in out
        assert "does not parse" in out


class TestUndecodableBytes:
    def test_lint_file_reports_rl000(self, tmp_path):
        findings = analyze_file(_write_undecodable(tmp_path), ALL_RULES)
        assert [f.rule_id for f in findings] == ["RL000"]
        assert "not valid utf-8" in findings[0].message

    def test_cli_exits_one(self, tmp_path, capsys):
        path = _write_undecodable(tmp_path)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "RL000" in out
        assert "not valid utf-8" in out
