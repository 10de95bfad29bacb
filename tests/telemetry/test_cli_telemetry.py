"""Tests for `--summary-json` and the `repro telemetry` subcommands."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.experiments import orchestrator
from repro.vmin.cache import configure_default_cache

RUN_KWARGS = dict(platform="xgene2", duration_s=60.0, seed=0)


@pytest.fixture(autouse=True)
def fresh_default_cache():
    configure_default_cache()
    yield
    configure_default_cache()


def _shrink_registry(monkeypatch, names=("table1", "fig5")):
    monkeypatch.setattr("repro.cli.experiment_names", lambda: names)
    return list(names)


def _write_manifest(tmp_path, name="manifest.json", names=("table1", "fig5")):
    summary = orchestrator.run_experiments(
        names=list(names), jobs=1, collect_telemetry=True, **RUN_KWARGS
    )
    manifest = telemetry.build_manifest(summary, **RUN_KWARGS)
    path = tmp_path / name
    telemetry.write_manifest(manifest, str(path))
    return path, manifest


class TestSummaryJsonFlag:
    def test_run_all_writes_valid_manifest(
        self, monkeypatch, tmp_path, capsys
    ):
        names = _shrink_registry(monkeypatch)
        out = tmp_path / "manifest.json"
        assert main(["run-all", "--summary-json", str(out)]) == 0
        captured = capsys.readouterr()
        assert "== table1 ==" in captured.out
        assert f"run manifest written to {out}" in captured.err
        manifest = json.loads(out.read_text())
        assert telemetry.validate_manifest(manifest) == []
        assert [e["name"] for e in manifest["experiments"]] == names

    def test_run_all_without_flag_skips_collection(
        self, monkeypatch, capsys
    ):
        _shrink_registry(monkeypatch)
        assert main(["run-all"]) == 0
        assert "run manifest written" not in capsys.readouterr().err
        assert not telemetry.enabled()

    def test_telemetry_left_disabled_after_manifest_run(
        self, monkeypatch, tmp_path, capsys
    ):
        _shrink_registry(monkeypatch)
        out = tmp_path / "manifest.json"
        assert main(["run-all", "--summary-json", str(out)]) == 0
        capsys.readouterr()
        assert not telemetry.enabled()


class TestTelemetrySubcommands:
    def test_check_accepts_valid_manifest(self, tmp_path, capsys):
        path, _ = _write_manifest(tmp_path)
        assert main(["telemetry", "check", str(path)]) == 0
        assert "manifest OK" in capsys.readouterr().err

    def test_check_rejects_schema_violations(self, tmp_path, capsys):
        path, manifest = _write_manifest(tmp_path)
        manifest.pop("totals")
        path.write_text(json.dumps(manifest))
        assert main(["telemetry", "check", str(path)]) == 1
        assert "schema" in capsys.readouterr().err

    def test_check_enforces_min_hit_rate(self, tmp_path, capsys):
        path, manifest = _write_manifest(tmp_path)
        # A cache-less run has hit rate 0.0: the floor must trip.
        assert (
            main(["telemetry", "check", str(path), "--min-hit-rate", "0.5"])
            == 1
        )
        assert "hit rate" in capsys.readouterr().err
        assert (
            main(["telemetry", "check", str(path), "--min-hit-rate", "0.0"])
            == 0
        )

    def test_check_enforces_experiment_count(self, tmp_path, capsys):
        path, _ = _write_manifest(tmp_path)
        assert (
            main(
                [
                    "telemetry", "check", str(path),
                    "--expect-experiments", "3",
                ]
            )
            == 1
        )
        assert "expected 3" in capsys.readouterr().err

    def test_summarize_prints_experiments(self, tmp_path, capsys):
        path, manifest = _write_manifest(tmp_path)
        assert main(["telemetry", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig5" in out
        assert manifest["fingerprint"][:16] in out

    def test_dump_emits_canonical_json(self, tmp_path, capsys):
        path, manifest = _write_manifest(tmp_path)
        assert main(["telemetry", "dump", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == manifest

    def test_dump_strip_timing(self, tmp_path, capsys):
        path, _ = _write_manifest(tmp_path)
        assert main(["telemetry", "dump", str(path), "--strip-timing"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "elapsed_s" not in payload["totals"]

    def test_diff_identical_manifests_exits_zero(self, tmp_path, capsys):
        path, _ = _write_manifest(tmp_path)
        assert main(["telemetry", "diff", str(path), str(path)]) == 0
        assert "manifests identical" in capsys.readouterr().err

    def test_diff_reports_changes_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        path, manifest = _write_manifest(tmp_path)
        changed = dict(manifest)
        changed["config"] = dict(manifest["config"], seed=9)
        other = tmp_path / "other.json"
        telemetry.write_manifest(changed, str(other))
        assert main(["telemetry", "diff", str(path), str(other)]) == 1
        captured = capsys.readouterr()
        assert "config.seed" in captured.out

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["telemetry", "check", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["telemetry", "frobnicate"])


#: Manifest files no JSON parser reads: cut mid-string, and not UTF-8.
BROKEN_MANIFESTS = {
    "truncated": json.dumps(
        {"schema_version": 1, "kind": "repro-run-manifest"}, indent=2
    ).encode()[:30],
    "not-utf8": b'{"kind": "\xff\xfe"}',
}


class TestBrokenManifests:
    """A manifest that does not parse is named, on one line, exit 2."""

    @pytest.mark.parametrize("damage", sorted(BROKEN_MANIFESTS))
    @pytest.mark.parametrize(
        "command",
        [
            ["check", "{broken}"],
            ["summarize", "{broken}"],
            ["diff", "{broken}", "{good}"],
            ["diff", "{good}", "{broken}"],
        ],
        ids=["check", "summarize", "diff-left", "diff-right"],
    )
    def test_broken_file_is_named(self, tmp_path, capsys, damage, command):
        broken = tmp_path / "broken.json"
        broken.write_bytes(BROKEN_MANIFESTS[damage])
        good = tmp_path / "good.json"
        good.write_text("{}")
        argv = [
            arg.format(broken=broken, good=good) for arg in command
        ]
        assert main(["telemetry", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro telemetry: error: {broken}: ")
