"""Disabled-telemetry overhead bound on the kernel-layer hot path.

The telemetry fast path is one attribute load plus one branch per
instrumented call site. This bench pins the PR's overhead claim: the
characterization pipeline through the instrumented kernels with
telemetry *disabled* (the default) must run within ``MAX_OVERHEAD`` of
the same pipeline with every telemetry entry point stubbed to a bare
no-op — i.e. the cost of having the instrumentation compiled in is
noise.

This is deliberately a plain timing test (no ``benchmark`` fixture), so
it never contributes rows to ``bench_results.json`` and cannot shift
the committed regression baseline.

When ``TELEMETRY_SNAPSHOT_OUT`` is set (the CI bench-regression job
sets it), one extra enabled pass dumps its metric snapshot there as a
build artifact — a quick look at what the kernels actually record.
"""

from __future__ import annotations

import json
import os
import time

from repro import telemetry
from repro.allocation import Allocation
from repro.platform.specs import xgene2_spec
from repro.units import ghz
from repro.vmin.characterize import VminCampaign
from repro.workloads.suites import characterization_set

#: Max allowed slowdown of the disabled fast path vs stubbed-out
#: telemetry (1.05 == 5%, the PR's acceptance bound).
MAX_OVERHEAD = 1.05

#: Interleaved timing rounds; the minimum of each side is compared.
ROUNDS = 5


class _NoopContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return None


_NOOP_CONTEXT = _NoopContext()


def _noop(*args, **kwargs):
    return None


def _noop_span(*args, **kwargs):
    return _NOOP_CONTEXT


def _campaign_inputs():
    """A kernel-heavy pipeline: batch search + scan + pfail curves."""
    spec = xgene2_spec()
    campaign = VminCampaign(spec, step_mv=2)
    pool = characterization_set()
    points = [
        campaign.point(
            profile.name,
            nthreads,
            allocation,
            freq_hz,
            workload_delta_mv=profile.vmin_delta_mv,
        )
        for nthreads, allocation in (
            (spec.n_cores, Allocation.CLUSTERED),
            (spec.n_cores // 2, Allocation.SPREADED),
        )
        for freq_hz in (ghz(2.4), ghz(1.2), ghz(0.9))
        for profile in pool
    ]
    axis = range(spec.nominal_voltage_mv, spec.min_voltage_mv - 1, -1)
    return campaign, points, axis


def _pipeline(campaign, points, axis):
    searches = campaign.measure_safe_vmin_batch(points)
    campaign.scan_unsafe_region_batch(
        points,
        safe_vmins_mv=[search.safe_vmin_mv for search in searches],
    )
    campaign.pfail_curves(points, axis)
    return searches


def _best_of(fn, rounds=1):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_disabled_telemetry_overhead_under_bound(monkeypatch):
    campaign, points, axis = _campaign_inputs()
    run = lambda: _pipeline(campaign, points, axis)  # noqa: E731

    # Warm both paths (numpy dispatch, memo tables) before timing.
    run()

    telemetry.disable()
    stubbed_s = float("inf")
    disabled_s = float("inf")
    # Interleave the two variants so clock drift hits both equally.
    for _ in range(ROUNDS):
        with monkeypatch.context() as patch:
            patch.setattr(telemetry, "inc", _noop)
            patch.setattr(telemetry, "observe", _noop)
            patch.setattr(telemetry, "set_gauge", _noop)
            patch.setattr(telemetry, "span", _noop_span)
            stubbed_s = min(stubbed_s, _best_of(run))
        disabled_s = min(disabled_s, _best_of(run))

    overhead = disabled_s / stubbed_s
    print(
        f"telemetry overhead: disabled {disabled_s:.4f}s vs "
        f"stubbed {stubbed_s:.4f}s ({(overhead - 1.0) * 100.0:+.2f}%)"
    )
    assert overhead < MAX_OVERHEAD, (
        f"disabled-telemetry fast path costs {(overhead - 1.0) * 100.0:.1f}%"
        f" on the kernel pipeline (bound: {(MAX_OVERHEAD - 1.0) * 100.0:.0f}%)"
    )


def test_enabled_pass_records_kernel_metrics(tmp_path):
    """Enabled telemetry sees the kernel batches; optional CI artifact."""
    campaign, points, axis = _campaign_inputs()
    with telemetry.session() as registry:
        _pipeline(campaign, points, axis)
        snapshot = registry.snapshot()
    batches = snapshot["histograms"].get(
        telemetry.names.KERNELS_VMIN_BATCH, {"count": 0}
    )
    assert batches["count"] > 0
    out = os.environ.get("TELEMETRY_SNAPSHOT_OUT")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
