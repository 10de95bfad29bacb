"""Pins what a seeded Monte-Carlo (``trials``) campaign returns.

Trials mode is the per-run protocol of the characterization campaign:
every level draws its failures binomially and splits them into failure
types with one multinomial draw, level by level, on the campaign's one
sequential RNG stream. The other characterization tests only check that
trials results stay close to the analytic ones and that the outcome
bookkeeping adds up; this one pins every recorded step — voltage, runs,
pfail and the outcome counts in their recorded order — of three calls
in sequence on one campaign per (chip, seed):

* ``measure_safe_vmin(point, mode="trials")``;
* ``scan_unsafe_region(point, mode="trials")``, which runs its own
  search first;
* ``scan_unsafe_region(point, mode="trials", safe_vmin_mv=...)`` from
  the first search's safe Vmin.

The draws come from ``numpy.random.Generator``, so a numpy release that
changes its binomial or multinomial stream fails this test too.
Regenerate the fixture, only when the protocol changes on purpose, with
``PYTHONPATH=src python -m tests.vmin.test_trials_protocol``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.allocation import Allocation
from repro.platform.specs import get_spec
from repro.units import ghz
from repro.vmin.characterize import VminCampaign

FIXTURE = Path(__file__).with_name("trials_protocol.json")

#: (platform, workload, threads, allocation, GHz) of the pinned point.
POINTS = {
    "xgene2": ("CG", 8, Allocation.CLUSTERED, 2.4),
    "xgene3": ("milc", 16, Allocation.SPREADED, 3.0),
}
SEEDS = (0, 7)


def _steps(steps):
    return [
        [s.voltage_mv, s.runs, s.pfail, [list(o) for o in s.outcomes.items()]]
        for s in steps
    ]


def capture(platform: str, seed: int) -> dict:
    """The three trials calls, in sequence on one seeded campaign."""
    campaign = VminCampaign(get_spec(platform), seed=seed)
    workload, nthreads, allocation, freq_ghz = POINTS[platform]
    point = campaign.point(workload, nthreads, allocation, ghz(freq_ghz))
    search = campaign.measure_safe_vmin(point, mode="trials")
    scan = campaign.scan_unsafe_region(point, mode="trials")
    rescan = campaign.scan_unsafe_region(
        point, mode="trials", safe_vmin_mv=search.safe_vmin_mv
    )
    return {
        "measure_safe_vmin": {
            "safe_vmin_mv": search.safe_vmin_mv,
            "steps": _steps(search.steps),
        },
        "scan_unsafe_region": {
            "safe_vmin_mv": scan.safe_vmin_mv,
            "crash_voltage_mv": scan.crash_voltage_mv,
            "steps": _steps(scan.steps),
        },
        "scan_unsafe_region_from_safe": {
            "safe_vmin_mv": rescan.safe_vmin_mv,
            "crash_voltage_mv": rescan.crash_voltage_mv,
            "steps": _steps(rescan.steps),
        },
    }


def capture_all() -> dict:
    return {
        f"{platform}/seed{seed}": capture(platform, seed)
        for platform in POINTS
        for seed in SEEDS
    }


@pytest.mark.parametrize("platform", sorted(POINTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_trials_campaign_matches_pinned_steps(platform, seed):
    pinned = json.loads(FIXTURE.read_text())[f"{platform}/seed{seed}"]
    # A JSON round trip keeps floats exact and turns tuples into lists.
    assert json.loads(json.dumps(capture(platform, seed))) == pinned


def dump(captures: dict) -> str:
    """The fixture text: one line per call, so a diff names the call."""
    blocks = []
    for key, calls in captures.items():
        lines = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(call, separators=(',', ':'))}"
            for name, call in calls.items()
        )
        blocks.append(f" {json.dumps(key)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    FIXTURE.write_text(dump(capture_all()))
