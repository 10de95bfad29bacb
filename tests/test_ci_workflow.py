"""Validity checks for the GitHub Actions pipeline.

``actionlint`` is not vendored, so these tests act as the workflow's
parse check: the YAML must load, and the jobs the project relies on
(test matrix, lint, benchmark smoke, run-all verification) must keep
their guarantees.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    assert WORKFLOW.is_file(), "CI workflow missing"
    return yaml.safe_load(WORKFLOW.read_text())


def _steps_text(job):
    return "\n".join(
        str(step.get("run", "")) for step in job.get("steps", [])
    )


def test_workflow_parses_with_expected_jobs(workflow):
    assert set(workflow["jobs"]) >= {
        "test",
        "lint",
        "lint-invariants",
        "platform-matrix",
        "bench-smoke",
        "verify",
    }
    # YAML 1.1 parses the bare `on:` trigger key as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers and "pull_request" in triggers


def test_test_job_matrix_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.11", "3.12", "3.13"]
    assert "python -m pytest -x -q" in _steps_text(workflow["jobs"]["test"])


def test_workflow_cancels_superseded_pr_runs(workflow):
    concurrency = workflow["concurrency"]
    assert "github.ref" in concurrency["group"]
    assert "pull_request" in str(concurrency["cancel-in-progress"])


def test_installing_jobs_cache_pip(workflow):
    for name, job in workflow["jobs"].items():
        if not any(
            "pip install" in str(step.get("run", ""))
            for step in job["steps"]
        ):
            continue
        caches = [
            step
            for step in job["steps"]
            if "actions/cache" in str(step.get("uses", ""))
        ]
        assert caches, f"job {name!r} installs without a pip cache"
        with_block = caches[0]["with"]
        assert with_block["path"] == "~/.cache/pip"
        assert "hashFiles('pyproject.toml')" in with_block["key"]


def test_lint_job_runs_ruff(workflow):
    text = _steps_text(workflow["jobs"]["lint"])
    assert "ruff check" in text
    assert "ruff format --check" in text


def test_lint_invariants_job_runs_reprolint_and_mypy(workflow):
    job = workflow["jobs"]["lint-invariants"]
    text = _steps_text(job)
    # Ephemeral runners: always the full, cache-free sweep.
    assert "python -m reprolint src tests --no-cache --format github" in text
    assert "python -m mypy" in text
    # reprolint must run before anything is installed: it is the same
    # stdlib-only invocation the pre-commit hook uses.
    runs = [str(step.get("run", "")) for step in job["steps"]]
    reprolint_idx = next(
        i for i, run in enumerate(runs) if "reprolint" in run
    )
    install_idx = next(
        i for i, run in enumerate(runs) if "pip install" in run
    )
    assert reprolint_idx < install_idx


def test_lint_invariants_job_uploads_sarif(workflow):
    job = workflow["jobs"]["lint-invariants"]
    text = _steps_text(job)
    assert "--format sarif" in text
    assert "> reprolint.sarif" in text
    uploads = [
        step
        for step in job["steps"]
        if "codeql-action/upload-sarif" in str(step.get("uses", ""))
    ]
    assert uploads, "lint-invariants must upload the SARIF report"
    upload = uploads[0]
    # Findings must still reach code scanning when the annotation step
    # already failed the job.
    assert str(upload.get("if", "")) == "always()"
    assert upload["with"]["sarif_file"] == "reprolint.sarif"
    assert upload["with"]["category"] == "reprolint"
    assert job["permissions"]["security-events"] == "write"


def test_lint_invariants_job_validates_spec_files(workflow):
    text = _steps_text(workflow["jobs"]["lint-invariants"])
    assert "repro platform validate" in text


def test_platform_matrix_job_smokes_spec_file_platform(workflow):
    job = workflow["jobs"]["platform-matrix"]
    text = _steps_text(job)
    assert "repro platform validate" in text
    # The whole registry must run on a platform that exists only as a
    # declarative spec file, and do so deterministically.
    assert "--platform xgene3-xl" in text
    assert "diff run_all_xl.txt run_all_xl_warm.txt" in text
    assert "timeout " in text


def test_platform_matrix_job_smokes_policy_bundles(workflow):
    job = workflow["jobs"]["platform-matrix"]
    text = _steps_text(job)
    # policy x platform: the registry-resolved ED²P bundle (whose
    # operating points are derived, not hard-coded) must drive the full
    # suite on the spec-file-only chip — cold and warm byte-identical.
    assert "repro policy show ed2p --platform xgene3-xl" in text
    assert "--platform xgene3-xl --policy ed2p" in text
    assert "tests/policies" in text
    # The cold run's output is pinned, not only self-consistent.
    assert (
        "diff tests/golden/run_all_xgene3_xl_ed2p.txt run_all_xl.txt" in text
    )
    assert (Path(__file__).parent / "golden/run_all_xgene3_xl_ed2p.txt").is_file()


def test_platform_matrix_job_diffs_policy_compare_goldens(workflow):
    text = _steps_text(workflow["jobs"]["platform-matrix"])
    # Every registered policy runs through the clamping funnel, so all
    # eleven are pinned, on a paper chip and on the spec-file chip.
    keys = (
        "none baseline-ondemand ondemand performance powersave safe-vmin "
        "daemon daemon-placement powercap daemon-powercap ed2p"
    )
    for platform, golden in (
        ("xgene2", "policy_compare_xgene2.txt"),
        ("xgene3-xl", "policy_compare_xgene3_xl.txt"),
    ):
        assert (
            f"repro policy compare --duration 900 --platform {platform} "
            f"{keys} > {golden}" in text
        )
        assert f"diff tests/golden/{golden} {golden}" in text
        assert (Path(__file__).parent / "golden" / golden).is_file()


def test_bench_smoke_job_is_timeout_guarded(workflow):
    job = workflow["jobs"]["bench-smoke"]
    assert job["timeout-minutes"] <= 30
    text = _steps_text(job)
    assert "timeout " in text
    assert "--benchmark-disable" in text


@pytest.mark.parametrize("name", ["bench-smoke", "bench-regression"])
def test_bench_jobs_run_pytest_as_a_module(workflow, name):
    # benchmarks/ is not a package, and the kernel benches import the
    # campaign oracle as ``tests.campaign_oracle``: that resolves only
    # with the repository root on sys.path, which ``python -m`` adds.
    text = _steps_text(workflow["jobs"][name])
    assert "python -m pytest benchmarks" in text
    assert text.count("pytest benchmarks") == text.count(
        "python -m pytest benchmarks"
    )


def test_bench_regression_job_gates_on_committed_baseline(workflow):
    job = workflow["jobs"]["bench-regression"]
    text = _steps_text(job)
    assert "--benchmark-json=bench_results.json" in text
    assert "compare_benchmarks.py compare" in text
    assert "baseline_medians.json" in text
    uploads = [
        step
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    ]
    paths = [step["with"]["path"] for step in uploads]
    assert "bench_results.json" in paths


def test_bench_regression_job_uploads_telemetry_snapshot(workflow):
    job = workflow["jobs"]["bench-regression"]
    assert "TELEMETRY_SNAPSHOT_OUT=telemetry_snapshot.json" in _steps_text(
        job
    )
    uploads = [
        step
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    ]
    paths = [step["with"]["path"] for step in uploads]
    assert "telemetry_snapshot.json" in paths


def test_every_job_has_a_timeout(workflow):
    for name, job in workflow["jobs"].items():
        assert "timeout-minutes" in job, f"job {name!r} lacks a timeout"


def test_verify_job_checks_determinism_and_cache(workflow):
    text = _steps_text(workflow["jobs"]["verify"])
    assert "repro run-all --jobs 2" in text
    assert "--cache-dir" in text
    assert "diff tests/golden/run_all_xgene2.txt" in text
    assert "diff run_all.txt run_all_warm.txt" in text
    # The second paper chip is pinned too.
    assert "repro run-all --jobs 2 --platform xgene3 >" in text
    assert "diff tests/golden/run_all_xgene3.txt run_all_xgene3.txt" in text
    assert (Path(__file__).parent / "golden/run_all_xgene3.txt").is_file()


def test_verify_job_reruns_on_a_truncated_pack(workflow):
    steps = workflow["jobs"]["verify"]["steps"]
    names = [step.get("name") for step in steps]
    position = names.index("A truncated pack changes nothing")
    assert position == names.index("Warm output is byte-identical") + 1
    text = str(steps[position]["run"])
    assert "pack=$(ls .vmin-cache/*.pack | head -n 1)" in text
    assert 'truncate -s -5 "$pack"' in text
    assert (
        "repro run-all --jobs 2 --platform xgene2 --cache-dir .vmin-cache"
        " > run_all_truncated.txt" in text
    )
    assert "diff tests/golden/run_all_xgene2.txt run_all_truncated.txt" in text


def test_verify_job_diffs_report_run_alone(workflow):
    # `repro report` runs table3/table4 as inputs but prints only the
    # report, which must equal the report section of the golden run-all.
    text = _steps_text(workflow["jobs"]["verify"])
    assert "repro report > report.txt" in text
    assert (
        "sed -n '/^== report ==$/,$p' tests/golden/run_all_xgene2.txt"
        in text
    )
    assert "diff - report.txt" in text


def test_verify_job_gates_on_structured_manifest(workflow):
    job = workflow["jobs"]["verify"]
    text = _steps_text(job)
    # The cache-hit gate reads the schema-validated manifest, not a
    # regex scrape of the human summary table.
    assert "--summary-json manifest_cold.json" in text
    assert "--summary-json manifest_warm.json" in text
    assert "repro telemetry check manifest_warm.json --min-hit-rate 0.5" in text
    assert "repro telemetry check manifest_cold.json" in text
    assert "import re" not in text
    uploads = [
        step
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    ]
    assert uploads, "verify job must upload the run manifests"
    paths = str(uploads[0]["with"]["path"])
    assert "manifest_cold.json" in paths
    assert "manifest_warm.json" in paths


def test_verify_job_runs_the_reachability_trace(workflow):
    # An unreached def in src/ fails the job unless the allowlist names
    # it with the reason it stays.
    text = _steps_text(workflow["jobs"]["verify"])
    assert "PYTHONPATH=src python tools/reachability.py" in text
    tools = Path(__file__).parent.parent / "tools"
    assert (tools / "reachability.py").is_file()
    assert (tools / "reachability_allow.txt").is_file()


def test_perfbench_reference_job_checks_both_chips(workflow):
    job = workflow["jobs"]["perfbench-reference"]
    assert job["timeout-minutes"] <= 30
    text = _steps_text(job)
    # run-all output of the paper chip and of the 64-core spec-file chip,
    # where placement has real choices, is checked against the pinned
    # per-section references.
    for workload in ("xgene2-cold", "xgene3-xl-cold"):
        assert (
            f"python3 perfbench/run.py --workload {workload} --seconds 1"
            in text
        )
        # The seed-dependent sections are checked at the held-out seed
        # too.
        assert (
            f"python3 perfbench/run.py --workload {workload} --seconds 1 "
            "--seed 11" in text
        )
    # The job fails unless the result line reports a correct run with
    # no failed operation.
    assert "tail -n 1" in text
    assert 'result["correct"] is True' in text
    assert 'result["failed"] == 0' in text
