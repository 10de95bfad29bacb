"""Work-count goldens: what a cold ``run-all --jobs 1`` does, counted.

The host-independent half of every performance claim is the work: the
replays, events, decisions, placements, kernel points, cache misses and
refreshes a run makes. ``tests/golden/work_counts_<platform>.json``
commits the counters of a cold run's manifest (``run-all --jobs 1
--platform P --summary-json M``, no ``--cache-dir``): the run-level
counters and those of every node the manifest lists, inputs included.
Each run is a fresh interpreter, so the in-process Vmin cache starts
empty. ``--jobs 1`` because under a pool the in-memory cache counters
depend on which worker runs what.

A change that changes the work fails here with the first counter path
that differs, and regenerates the files on purpose with
``PYTHONPATH=src python -m tests.test_work_counts``; the diff of the
files is then the reviewed count of the claim.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
PLATFORMS = ("xgene2", "xgene3-xl")


def golden_path(platform: str) -> Path:
    """The committed counts of ``platform``."""
    return ROOT / "tests" / "golden" / (
        f"work_counts_{platform.replace('-', '_')}.json"
    )


def work_counts(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The counters of a run manifest: the run's, then each node's."""
    return {
        "run": manifest["metrics"]["counters"],
        "nodes": {
            entry["name"]: entry["metrics"]["counters"]
            for entry in manifest["experiments"]
        },
    }


def cold_run_counts(platform: str) -> Dict[str, Any]:
    """Counts of a cold ``run-all --jobs 1`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "manifest.json"
        subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "run-all", "--jobs", "1",
                "--platform", platform, "--summary-json", str(manifest),
            ],
            env=env,
            cwd=tmp,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=True,
            timeout=300,
        )
        return work_counts(json.loads(manifest.read_text()))


def _flatten(counts: Dict[str, Any]) -> Dict[str, int]:
    flat = {f"run.{name}": value for name, value in counts["run"].items()}
    for node, counters in counts["nodes"].items():
        for name, value in counters.items():
            flat[f"nodes.{node}.{name}"] = value
    return flat


def first_difference(
    golden: Dict[str, Any], measured: Dict[str, Any]
) -> Optional[str]:
    """The first counter path, in golden order, whose value differs or
    that only one side has; ``None`` when the counts agree."""
    want = _flatten(golden)
    got = _flatten(measured)
    for path in [*want, *(path for path in got if path not in want)]:
        if want.get(path) != got.get(path):
            return f"{path}: golden {want.get(path)}, measured {got.get(path)}"
    return None


@pytest.mark.parametrize("platform", PLATFORMS)
def test_cold_run_all_does_the_committed_work(platform):
    golden = json.loads(golden_path(platform).read_text())
    difference = first_difference(golden, cold_run_counts(platform))
    assert difference is None, (
        f"{platform}: {difference}; if the work changed on purpose, "
        "regenerate with `PYTHONPATH=src python -m tests.test_work_counts`"
    )


class TestFirstDifference:
    COUNTS = {
        "run": {"sim.run.completed": 3},
        "nodes": {"fig14": {"sim.run.completed": 2}, "fig15": {}},
    }

    def test_equal_counts_agree(self):
        assert first_difference(self.COUNTS, self.COUNTS) is None

    def test_names_the_first_differing_path(self):
        measured = {
            "run": {"sim.run.completed": 4},
            "nodes": {"fig14": {"sim.run.completed": 3}, "fig15": {}},
        }
        assert first_difference(self.COUNTS, measured) == (
            "run.sim.run.completed: golden 3, measured 4"
        )

    def test_names_a_counter_only_one_side_has(self):
        measured = {
            "run": {"sim.run.completed": 3},
            "nodes": {
                "fig14": {"sim.run.completed": 2},
                "fig15": {"sim.run.completed": 1},
            },
        }
        assert first_difference(self.COUNTS, measured) == (
            "nodes.fig15.sim.run.completed: golden None, measured 1"
        )


if __name__ == "__main__":
    for name in PLATFORMS:
        golden_path(name).write_text(
            json.dumps(cold_run_counts(name), indent=1) + "\n"
        )
