"""CLI behavior: formats, exit codes, selection, shim entry point."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from reprolint.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def dirty_tree(tmp_path):
    """A fake project with a pyproject and one file that breaks RL005
    (a slot-less hot dataclass) and RL001 (a magic unit conversion)."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    src = tmp_path / "src" / "repro" / "sim"
    src.mkdir(parents=True)
    (src / "hot.py").write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Sample:\n"
        "    t_s: float\n"
        "\n"
        "\n"
        "def rail_volts(rail_mv):\n"
        "    return rail_mv / 1000\n"
    )
    return tmp_path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code, out, _ = run_cli([str(tmp_path / "ok.py")], capsys)
        assert code == 0
        assert "clean" in out

    def test_findings_exit_one(self, dirty_tree, capsys):
        code, out, _ = run_cli(
            [str(dirty_tree / "src"), "--select", "RL005"], capsys
        )
        assert code == 1
        assert "RL005" in out
        assert "1 finding" in out

    def test_missing_target_exits_two(self, capsys):
        code, _, err = run_cli(["definitely/not/here"], capsys)
        assert code == 2
        assert "no such file" in err

    def test_unknown_rule_id_is_usage_error(self, dirty_tree, capsys):
        # A selection that names no rule would run none and print
        # "clean": it is a usage error too.
        for select in ("RL999", ",", " "):
            with pytest.raises(SystemExit) as excinfo:
                main([str(dirty_tree / "src"), "--select", select])
            assert excinfo.value.code == 2, select


class TestFormats:
    def test_json_format_is_machine_readable(self, dirty_tree, capsys):
        code, out, _ = run_cli(
            [
                str(dirty_tree / "src"),
                "--select",
                "RL005",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert len(payload) == 1
        entry = payload[0]
        assert entry["rule"] == "RL005"
        assert entry["line"] == 5
        assert entry["col"] == 0
        assert entry["path"].endswith("hot.py")

    def test_github_format_emits_error_commands(
        self, dirty_tree, capsys
    ):
        code, out, _ = run_cli(
            [
                str(dirty_tree / "src"),
                "--select",
                "RL005",
                "--format",
                "github",
            ],
            capsys,
        )
        assert code == 1
        line = out.strip().splitlines()[0]
        assert line.startswith("::error file=")
        assert "line=5" in line
        # GitHub columns are 1-based; the AST col_offset 0 maps to 1.
        assert "col=1" in line
        assert "reprolint RL005" in line

    def test_github_format_escapes_newlines_and_percent(self):
        from reprolint.cli import _escape_data

        assert _escape_data("a%b\nc\rd") == "a%25b%0Ac%0Dd"

    def test_list_rules(self, capsys):
        code, out, _ = run_cli(["--list-rules"], capsys)
        assert code == 0
        for rule_id in ("RL000", "RL001", "RL002", "RL003", "RL004",
                        "RL005"):
            assert rule_id in out


class TestModuleEntryPoint:
    def test_python_dash_m_reprolint_from_repo_root(self, tmp_path):
        # The root shim must make `python -m reprolint` work from a
        # fresh checkout with nothing installed.
        (tmp_path / "clean.py").write_text("x = 1\n")
        result = subprocess.run(
            [sys.executable, "-m", "reprolint", str(tmp_path)],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout

    def test_fixture_walks_are_excluded_by_default(self, tmp_path):
        # Directory walks skip lint fixture corpora (files meant to be
        # flagged); pointing the CLI at an explicit fixture file still
        # lints it. The copy lives outside a `tests/` path segment so
        # it is not exempted as test code.
        target = tmp_path / "lint" / "fixtures"
        target.mkdir(parents=True)
        shutil.copy(FIXTURES / "rl005_bad.py", target / "rl005_bad.py")
        assert main([str(tmp_path)]) == 0
        assert main([str(target / "rl005_bad.py")]) == 1


class TestSarifFormat:
    def test_sarif_output_shape(self, dirty_tree, capsys):
        code, out, _ = run_cli(
            [
                str(dirty_tree / "src"),
                "--select",
                "RL005",
                "--format",
                "sarif",
            ],
            capsys,
        )
        assert code == 1
        log = json.loads(out)
        assert log["version"] == "2.1.0"
        assert "sarif-2.1.0" in log["$schema"]
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        (result,) = run["results"]
        assert result["ruleId"] == "RL005"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5
        assert region["startColumn"] == 1


class TestEachRunStandsAlone:
    """A run's findings follow from its own options and sources, never
    from an earlier run over the same tree."""

    def test_full_run_after_a_select_run_reports_every_rule(
        self, dirty_tree, capsys
    ):
        src = str(dirty_tree / "src")
        run_cli([src, "--select", "RL005"], capsys)
        code, out, _ = run_cli([src, "--format", "json"], capsys)
        assert code == 1
        assert {"RL001", "RL005"} <= {f["rule"] for f in json.loads(out)}

    def test_select_run_after_a_full_run_reports_only_the_selection(
        self, dirty_tree, capsys
    ):
        src = str(dirty_tree / "src")
        run_cli([src], capsys)
        code, out, _ = run_cli(
            [src, "--select", "RL005", "--format", "json"], capsys
        )
        assert code == 1
        assert [f["rule"] for f in json.loads(out)] == ["RL005"]


def seed_commit(tree):
    """``git init`` ``tree`` and commit everything in it."""

    def git(*args):
        subprocess.run(
            ["git", "-C", str(tree), *args],
            check=True,
            capture_output=True,
            env={
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
                "PATH": "/usr/bin:/bin:/usr/local/bin",
            },
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    return tree


def slotless_dataclass(name):
    """Module source whose one dataclass breaks RL005."""
    return (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass\n"
        f"class {name}:\n"
        "    t_s: float\n"
    )


class TestChangedMode:
    @pytest.fixture
    def git_project(self, dirty_tree):
        return seed_commit(dirty_tree)

    def test_unchanged_tree_reports_nothing(self, git_project, capsys):
        code, out, _ = run_cli(
            [
                str(git_project / "src"),
                "--select",
                "RL005",
                "--changed",
                "HEAD",
            ],
            capsys,
        )
        assert code == 0
        assert "clean" in out

    def test_changed_file_is_reported(self, git_project, capsys):
        hot = git_project / "src" / "repro" / "sim" / "hot.py"
        hot.write_text(hot.read_text() + "\n")
        code, out, _ = run_cli(
            [
                str(git_project / "src"),
                "--select",
                "RL005",
                "--changed",
                "HEAD",
            ],
            capsys,
        )
        assert code == 1
        assert "RL005" in out

    def test_dependents_of_a_changed_file_are_reported(
        self, dirty_tree, capsys
    ):
        # uses.py imports helpers.py; lone.py stands alone. Both break
        # RL005, but only the dependent of the edited file is reported.
        sim = dirty_tree / "src" / "repro" / "sim"
        (sim / "helpers.py").write_text("def offset():\n    return 1\n")
        (sim / "uses.py").write_text(
            "from repro.sim.helpers import offset\n"
            + slotless_dataclass("Uses")
            + "\n\ndef use():\n    return offset()\n"
        )
        (sim / "lone.py").write_text(slotless_dataclass("Lone"))
        seed_commit(dirty_tree)
        (sim / "helpers.py").write_text("def offset():\n    return 2\n")
        code, out, _ = run_cli(
            [
                str(dirty_tree / "src"),
                "--select",
                "RL005",
                "--format",
                "json",
                "--changed",
                "HEAD",
            ],
            capsys,
        )
        assert code == 1
        assert [Path(f["path"]).name for f in json.loads(out)] == [
            "uses.py"
        ]

    def test_unknown_ref_is_usage_error(self, git_project, capsys):
        code, _, err = run_cli(
            [
                str(git_project / "src"),
                "--changed",
                "no-such-ref",
            ],
            capsys,
        )
        assert code == 2
        assert "reprolint:" in err
