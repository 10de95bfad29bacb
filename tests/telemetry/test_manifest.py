"""Tests for run manifests: schema, fingerprints, diff, instrumentation."""

from __future__ import annotations

import copy
import json

import pytest

from repro import telemetry
from repro.experiments import orchestrator
from repro.telemetry import names as metric_names
from repro.telemetry.manifest import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA_VERSION,
    canonical_json,
    diff_manifests,
    hit_rate_of,
    load_manifest,
    manifest_fingerprint,
    strip_timing_fields,
    summarize_manifest,
    validate_manifest,
    write_manifest,
)

SUBSET = ["table1", "fig5"]
RUN_KWARGS = dict(platform="xgene2", duration_s=60.0, seed=0)


def experiment_names(manifest):
    """The names of a manifest's experiments, in merge order."""
    return [entry["name"] for entry in manifest["experiments"]]


@pytest.fixture(scope="module")
def summary():
    return orchestrator.run_experiments(
        names=SUBSET, jobs=1, collect_telemetry=True, **RUN_KWARGS
    )


@pytest.fixture(scope="module")
def manifest(summary):
    return telemetry.build_manifest(summary, **RUN_KWARGS)


class TestBuildAndSchema:
    def test_built_manifest_validates(self, manifest):
        assert validate_manifest(manifest) == []
        assert manifest["kind"] == MANIFEST_KIND
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION

    def test_manifest_covers_requested_experiments(self, manifest):
        assert experiment_names(manifest) == SUBSET
        assert manifest["totals"]["experiments"] == len(SUBSET)

    def test_every_experiment_carries_metrics_and_digest(self, manifest):
        for entry in manifest["experiments"]:
            assert entry["metrics"] is not None
            assert len(entry["output_sha256"]) == 64
            assert entry["output_bytes"] > 0

    def test_run_level_metrics_are_merged_in(self, summary, manifest):
        completed = metric_names.ORCH_EXPERIMENTS_COMPLETED
        assert summary.metrics["counters"][completed] == len(SUBSET)
        assert manifest["metrics"]["counters"][completed] == len(SUBSET)

    def test_inputs_are_listed_and_counted(self):
        # table3 takes fig14's xgene2 runs: an input listed after it,
        # whose replays the run's totals include.
        summary = orchestrator.run_experiments(
            names=["table3"], jobs=1, collect_telemetry=True,
            duration_s=240.0, seed=5,
        )
        built = telemetry.build_manifest(
            summary, platform=None, duration_s=240.0, seed=5
        )
        assert experiment_names(built) == ["table3", "fig14@xgene2"]
        assert built["config"]["experiments"] == ["table3"]
        runs = [
            entry["metrics"]["counters"][metric_names.SIM_RUNS]
            for entry in built["experiments"]
        ]
        assert runs == [2, 2]
        assert built["metrics"]["counters"][metric_names.SIM_RUNS] == 4

    def test_missing_key_is_a_schema_error(self, manifest):
        broken = copy.deepcopy(manifest)
        del broken["totals"]["cache"]
        errors = validate_manifest(broken)
        assert any("totals.cache" in e for e in errors)

    def test_extra_key_is_a_schema_error(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["unexpected"] = 1
        errors = validate_manifest(broken)
        assert any("unexpected" in e for e in errors)

    def test_wrong_type_is_a_schema_error(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["config"]["seed"] = "zero"
        errors = validate_manifest(broken)
        assert any("config.seed" in e for e in errors)

    def test_bool_does_not_satisfy_int(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["config"]["seed"] = True
        errors = validate_manifest(broken)
        assert any("config.seed" in e for e in errors)

    def test_unknown_schema_version_is_rejected(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["schema_version"] = 99
        errors = validate_manifest(broken)
        assert errors and "unknown version 99" in errors[0]

    def test_non_object_payloads_are_rejected(self):
        assert validate_manifest([]) != []
        assert validate_manifest({"schema_version": "x"}) != []


class TestFingerprint:
    def test_fingerprint_ignores_timing_and_environment(self, manifest):
        other = copy.deepcopy(manifest)
        other["totals"]["elapsed_s"] = 999.0
        other["experiments"][0]["elapsed_s"] = 123.0
        other["environment"]["git_rev"] = "somewhere-else"
        assert manifest_fingerprint(other) == manifest["fingerprint"]

    def test_fingerprint_sees_deterministic_changes(self, manifest):
        other = copy.deepcopy(manifest)
        other["experiments"][0]["output_sha256"] = "0" * 64
        assert manifest_fingerprint(other) != manifest["fingerprint"]

    def test_strip_timing_drops_span_subtrees(self, manifest):
        stripped = strip_timing_fields(manifest)
        assert "spans" not in stripped["metrics"]
        assert "elapsed_s" not in stripped["totals"]
        for entry in stripped["experiments"]:
            assert "elapsed_s" not in entry


class TestDiffAndSummary:
    def test_identical_manifests_diff_empty(self, manifest):
        assert diff_manifests(manifest, manifest) == []

    def test_timing_only_changes_diff_empty_by_default(self, manifest):
        other = copy.deepcopy(manifest)
        other["totals"]["elapsed_s"] = 999.0
        assert diff_manifests(manifest, other) == []
        assert diff_manifests(
            manifest, other, ignore_timing=False
        ) != []

    def test_value_change_is_reported_with_path(self, manifest):
        other = copy.deepcopy(manifest)
        other["config"]["seed"] = 7
        lines = diff_manifests(manifest, other)
        assert any("config.seed" in line and "-> 7" in line for line in lines)

    def test_summary_mentions_experiments_and_fingerprint(self, manifest):
        text = summarize_manifest(manifest)
        assert manifest["fingerprint"][:16] in text
        for name in SUBSET:
            assert name in text

    def test_hit_rate_reads_totals(self, manifest):
        assert hit_rate_of(manifest) == pytest.approx(
            manifest["totals"]["cache"]["hit_rate"]
        )


class TestRoundTrip:
    def test_write_then_load_preserves_payload(self, manifest, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(manifest, str(path))
        assert load_manifest(str(path)) == manifest
        # Stable on-disk form: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )
