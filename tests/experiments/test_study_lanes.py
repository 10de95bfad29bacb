"""The lane-sharing studies ≡ one replay per study point.

``variation_study.run`` replays each distinct policy table once with a
lane per (die, table) point, and ``thermal_study.run`` replays once
with a lane per ambient. :mod:`tests.study_oracle` keeps one replay per
point; every row field must be ``==``. The 64-core chip runs a shorter
window to bound the suite's time.
"""

import pytest

from repro import telemetry
from repro.experiments import thermal_study, variation_study

from tests.study_oracle import thermal_per_point, variation_per_point

PLATFORMS = [("xgene2", 600.0), ("xgene3", 600.0), ("xgene3-xl", 120.0)]
AMBIENTS_C = (15.0, 25.0, 45.0, 65.0, 75.0, 85.0)


@pytest.mark.parametrize("platform, duration_s", PLATFORMS)
def test_variation_matches_one_replay_per_point(platform, duration_s):
    seeds = range(4)
    study = variation_study.run(platform, seeds=seeds, duration_s=duration_s)
    oracle = variation_per_point(platform, seeds, duration_s)
    assert study.platform == oracle.platform
    assert study.records == oracle.records


@pytest.mark.parametrize("platform, duration_s", PLATFORMS)
def test_thermal_matches_one_replay_per_point(platform, duration_s):
    study = thermal_study.run(
        platform, ambients_c=AMBIENTS_C, duration_s=duration_s
    )
    oracle = thermal_per_point(platform, AMBIENTS_C, duration_s)
    assert (study.platform, study.calibration_c) == (
        oracle.platform,
        oracle.calibration_c,
    )
    assert study.rows == oracle.rows


@pytest.mark.parametrize(
    "platform, duration_s, replays",
    [("xgene2", 600.0, 4), ("xgene3-xl", 120.0, 3)],
)
def test_one_replay_per_decision_stream(platform, duration_s, replays):
    # xgene2's four dies deploy three distinct tables, xgene3-xl's two;
    # the thermal sweep is one more stream.
    with telemetry.session() as registry:
        variation_study.run(platform, seeds=range(4), duration_s=duration_s)
        thermal_study.run(
            platform, ambients_c=AMBIENTS_C, duration_s=duration_s
        )
        counters = registry.snapshot()["counters"]
    assert counters[telemetry.names.SIM_RUNS] == replays
