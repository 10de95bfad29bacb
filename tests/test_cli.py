"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.errors import SimulationError
from repro.experiments import fig3_vmin_characterization
from repro.experiments.registry import REGISTRY, experiment_names
from repro.platform.specs import xgene2_spec, xgene3_spec
from repro.vmin.cache import reset_default_cache


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for name in experiment_names():
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_platform_flag(self):
        args = build_parser().parse_args(["fig7", "--platform", "xgene3"])
        assert args.platform == "xgene3"

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_all_is_gone(self):
        # run-all is the one batch command.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["all"])

    def test_duration_and_seed(self):
        args = build_parser().parse_args(
            ["table3", "--duration", "120", "--seed", "9"]
        )
        assert args.duration == 120.0
        assert args.seed == 9


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.split() == sorted(experiment_names())

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert xgene2_spec().name in out and xgene3_spec().name in out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        assert "clock_division" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "droop" in capsys.readouterr().out

    def test_fig8_with_platform(self, capsys):
        assert main(["fig8", "--platform", "xgene2"]) == 0
        assert xgene2_spec().name in capsys.readouterr().out

    def test_table3_short(self, capsys):
        assert main(["table3", "--duration", "120", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out and "baseline" in out

    def test_default_platforms_cover_commands(self):
        # The registry is the only source of a command's default
        # platform; only the platform-independent ones declare none.
        for entry in REGISTRY:
            assert (
                entry.default_platform is not None
                or entry.name in ("table1", "table3", "table4", "report")
            )


class TestRunAll:
    @pytest.fixture(autouse=True)
    def fresh_default_cache(self):
        reset_default_cache()
        yield
        reset_default_cache()

    def test_parser_accepts_jobs_and_cache_dir(self, tmp_path):
        args = build_parser().parse_args(
            ["run-all", "--jobs", "4", "--cache-dir", str(tmp_path)]
        )
        assert args.experiment == "run-all"
        assert args.jobs == 4
        assert args.cache_dir == str(tmp_path)

    def test_jobs_default_is_sequential(self):
        assert build_parser().parse_args(["run-all"]).jobs == 1

    def test_single_experiment_routes_through_orchestrator(
        self, tmp_path, capsys
    ):
        assert main(["fig3", "--cache-dir", str(tmp_path)]) == 0
        assert "safe Vmin" in capsys.readouterr().out
        assert any(tmp_path.iterdir())

    def test_run_all_splits_output_and_summary(self, monkeypatch, capsys):
        # Shrink the batch so it stays cheap.
        monkeypatch.setattr(
            "repro.cli.experiment_names", lambda: ("table1", "fig5", "fig6")
        )
        assert main(["run-all", "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "== table1 ==" in captured.out
        assert "orchestrator summary" in captured.err
        assert "orchestrator summary" not in captured.out
        assert "speedup vs serial sum" in captured.err


class TestErrorExits:
    """Failures at the CLI's file boundaries exit with one line, no traceback."""

    @pytest.fixture(autouse=True)
    def fresh_default_cache(self):
        reset_default_cache()
        yield
        reset_default_cache()

    def test_missing_manifest_directory_refused_before_running(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "missing" / "m.json"
        assert main(["run-all", "--summary-json", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: --summary-json")
        assert captured.err.count("\n") == 1

    def test_cache_dir_under_a_file_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(["fig3", "--cache-dir", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: cache dir")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "exc",
        [SimulationError("inconsistent state"), OSError(28, "disk full")],
        ids=["repro-error", "os-error"],
    )
    def test_other_failures_exit_1_with_one_line(
        self, monkeypatch, capsys, exc
    ):
        def fail(**kwargs):
            raise exc

        monkeypatch.setattr(fig3_vmin_characterization, "render", fail)
        assert main(["fig3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: fig3: {exc}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3", "--duration", "60"],
            ["fig14", "--platform", "xgene2", "--duration", "60"],
            ["fig15", "--platform", "xgene2", "--duration", "60"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_empty_workload_is_a_config_error(self, capsys, argv):
        # xgene2's generator draws no job in 60 s at seed 0.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: {argv[0]}: no job arrives in 60 s on 8 cores "
            "at seed 0; use a longer duration\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_experiment_is_named(self, capsys, jobs):
        argv = ["run-all", "--platform", "xgene2", "--duration", "60"]
        assert main([*argv, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        failed = re.fullmatch(
            r"repro: error: (\w+): no job arrives in 60 s .*\n", captured.err
        )
        assert failed is not None
        assert failed.group(1) in experiment_names()
