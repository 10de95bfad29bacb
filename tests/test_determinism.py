"""Determinism regressions: seed threading and hash-seed independence.

Three layers of the reproducibility story:

* the workload generator and the silicon-variation map must replay
  identically for the same seed (and differ across seeds);
* injected RNG streams must be equivalent to the seed-derived default,
  so callers can thread explicit ``random.Random`` instances without
  changing results;
* the orchestrator's merged experiment output must be byte-identical
  under different ``PYTHONHASHSEED`` values — no dict/set hash order
  may leak into golden output.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from repro.platform.specs import get_spec
from repro.vmin.variation import make_variation_map, variation_rng
from repro.workloads.generator import ServerWorkloadGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSeedThreading:
    def test_same_seed_same_workload(self):
        a = ServerWorkloadGenerator(max_cores=8, seed=7).generate(900.0)
        b = ServerWorkloadGenerator(max_cores=8, seed=7).generate(900.0)
        assert a == b

    def test_different_seed_different_workload(self):
        a = ServerWorkloadGenerator(max_cores=8, seed=7).generate(900.0)
        b = ServerWorkloadGenerator(max_cores=8, seed=8).generate(900.0)
        assert a.jobs != b.jobs

    def test_injected_rng_matches_derived_default(self):
        gen = ServerWorkloadGenerator(max_cores=8, seed=3)
        implicit = gen.generate(900.0)
        explicit = gen.generate(900.0, rng=gen.rng_for())
        assert implicit == explicit

    def test_injected_rng_controls_the_draws(self):
        gen = ServerWorkloadGenerator(max_cores=8, seed=3)
        other = gen.generate(900.0, rng=random.Random("elsewhere"))
        assert other.jobs != gen.generate(900.0).jobs

    def test_same_seed_same_variation_map(self):
        spec = get_spec("xgene2")
        assert make_variation_map(spec, 5) == make_variation_map(spec, 5)
        assert make_variation_map(spec, 5) != make_variation_map(spec, 6)

    def test_variation_injected_rng_matches_derived_stream(self):
        spec = get_spec("xgene2")
        derived = make_variation_map(spec, 9)
        injected = make_variation_map(spec, rng=variation_rng(spec, 9))
        assert derived == injected

    def test_variation_injected_rng_bypasses_paper_chip(self):
        # An explicit stream means the caller wants the population
        # draw, not the hand-laid paper offsets of (X-Gene 2, seed 0).
        spec = get_spec("xgene2")
        paper = make_variation_map(spec, 0)
        drawn = make_variation_map(spec, 0, rng=variation_rng(spec, 0))
        assert drawn != paper
        assert drawn == make_variation_map(
            spec, 0, rng=variation_rng(spec, 0)
        )


#: Cheap orchestrator subset covering campaign, table and figure paths.
_SUBSET = "table1,fig4,fig5,fig7,fig13"

_SUBPROCESS_SCRIPT = """\
import sys
from repro.experiments.orchestrator import run_experiments
summary = run_experiments(names=sys.argv[1].split(","), jobs=1)
sys.stdout.write(summary.merged_output())
"""


def _run_with_hashseed(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT, _SUBSET],
        env=env,
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return result.stdout


class TestHashSeedIndependence:
    def test_merged_output_is_hashseed_independent(self):
        # Two interpreter sessions with different (fixed) hash seeds:
        # any set/dict iteration order leaking into the merged output
        # shows up as a byte difference here.
        first = _run_with_hashseed("0")
        second = _run_with_hashseed("1")
        assert first, "orchestrator subset produced no output"
        assert first == second


class TestManifestDeterminism:
    """Same-seed runs must agree on every non-timing manifest byte."""

    NAMES = ["fig14", "fig5"]
    # Seed 0 draws no job in 60 s on xgene2, which fig14 refuses.
    KWARGS = dict(platform="xgene2", duration_s=60.0, seed=1)

    def _run(self):
        from repro.experiments import orchestrator
        from repro.telemetry import build_manifest
        from repro.vmin.cache import configure_default_cache

        configure_default_cache()
        summary = orchestrator.run_experiments(
            names=self.NAMES, jobs=1, collect_telemetry=True, **self.KWARGS
        )
        return summary, build_manifest(summary, **self.KWARGS)

    def test_metric_snapshots_are_byte_identical(self):
        from repro.telemetry import strip_timing_fields
        from repro.telemetry.manifest import canonical_json

        first, _ = self._run()
        second, _ = self._run()
        for a, b in zip(first.outcomes, second.outcomes):
            # Spans carry wall-clock values and are explicitly excluded;
            # everything else must replay exactly.
            assert canonical_json(
                strip_timing_fields(a.metrics)
            ) == canonical_json(strip_timing_fields(b.metrics))

    def test_manifests_share_fingerprint_and_diff_empty(self):
        from repro.telemetry import diff_manifests

        _, first = self._run()
        _, second = self._run()
        assert first["fingerprint"] == second["fingerprint"]
        assert diff_manifests(first, second) == []

    def test_stripped_manifests_are_byte_identical(self):
        from repro.telemetry import strip_timing_fields
        from repro.telemetry.manifest import (
            FINGERPRINT_EXCLUDED_TOP_KEYS,
            canonical_json,
        )

        _, first = self._run()
        _, second = self._run()
        def deterministic_bytes(manifest):
            payload = {
                key: value
                for key, value in manifest.items()
                if key not in FINGERPRINT_EXCLUDED_TOP_KEYS
            }
            return canonical_json(strip_timing_fields(payload))

        assert deterministic_bytes(first) == deterministic_bytes(second)
