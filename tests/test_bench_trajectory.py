"""Shape of the committed end-to-end trajectory, ``BENCH_run_all.json``.

Absolute times do not compare across hosts or sessions, so each row
records paired parent→change statistics of the benchmark's end-to-end
metrics together with host-independent work counts from a traced run.
These checks keep every row readable by the next change: the fields
are there, the counts are counts, and every workload and metric name
is one that ``BENCHMARK.json`` declares.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
COUNTS = (
    "sim.run.calls",
    "sim.events.dispatched",
    "policies.decide.calls",
    "core.placement.calls",
    "kernels.points",
    "vmin.cache.misses",
)


@pytest.fixture(scope="module")
def declared():
    """``BENCHMARK.json``: the workloads and metrics the benchmark has."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rows():
    rows = json.loads((ROOT / "BENCH_run_all.json").read_text())["rows"]
    assert rows
    return rows


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def test_every_row_has_the_fields(rows):
    for row in rows:
        assert isinstance(row["parent_rev"], str) and row["parent_rev"]
        assert isinstance(row["pr"], int)
        assert row["runs"], row["workload"]
        for run in row["runs"]:
            assert isinstance(run["seed"], int)
            assert run["pairs"] > 0
            for name in END_TO_END:
                metric = run["metrics"][name]
                for side in ("parent", "change"):
                    assert set(metric[side]) >= {"q1", "median", "q3"}
                assert 0 <= metric["change_wins"] <= run["pairs"]
        assert isinstance(row["counts_seed"], int)
        assert set(row["counts"]) >= set(COUNTS)


def test_counts_are_non_negative_ints(rows):
    for row in rows:
        for name, sides in row["counts"].items():
            assert _is_count(sides["parent"]), (row["workload"], name)
            assert _is_count(sides["change"]), (row["workload"], name)


def test_names_exist_in_the_benchmark(rows, declared):
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]} | {
        m["name"] for m in declared["per_layer"]
    }
    for row in rows:
        assert row["workload"] in workloads
        for run in row["runs"]:
            assert set(run["metrics"]) <= metrics
        assert set(row["counts"]) <= metrics
