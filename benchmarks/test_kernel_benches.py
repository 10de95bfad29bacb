"""Regression benches for the vectorized kernel layer.

The campaign bench pins the kernels' headline claim: a cold (cache-less)
characterization pipeline through :mod:`repro.kernels` must run at
least 5x faster than the scalar reference loops it replaced — kept as
the test oracle in ``tests/campaign_oracle.py`` — and return identical
results. The pipeline is what a cold ``run-all`` actually executes per
platform: the safe-Vmin search and unsafe-region scan of every Fig. 3/4
point, the Fig. 5 pfail curves, and the worst-case policy-table sweep —
at a denser-than-default protocol (2 mV search steps, 1 mV curve axis,
full 25-benchmark pool) so the scalar baseline is long enough to time
reliably.
"""

import time

from repro.allocation import Allocation, cores_for
from repro.experiments.energy_runner import EnergyRunner
from repro.kernels import safe_vmin_matrix
from repro.platform.specs import xgene2_spec
from repro.units import ghz
from repro.vmin.characterize import VminCampaign
from repro.workloads.suites import characterization_set

from conftest import run_once
# Importable only with the repository root on sys.path: run the benches
# as ``python -m pytest benchmarks`` from the root.
from tests import campaign_oracle as oracle

#: Dense campaign protocol shared by the scalar and vectorized runs.
BENCH_STEP_MV = 2
BENCH_FREQS = (ghz(2.4), ghz(1.2), ghz(0.9))
#: Minimum cold-pipeline speedup the kernels must deliver.
MIN_CAMPAIGN_SPEEDUP = 5.0


def _bench_campaign(spec):
    """Fresh cache-less campaign plus the full Fig. 3-style point list."""
    campaign = VminCampaign(spec, step_mv=BENCH_STEP_MV)
    pool = characterization_set()
    points = []
    for nthreads in (spec.n_cores, spec.n_cores // 2):
        allocation = (
            Allocation.CLUSTERED
            if nthreads == spec.n_cores
            else Allocation.SPREADED
        )
        for freq_hz in BENCH_FREQS:
            for profile in pool:
                points.append(
                    campaign.point(
                        profile.name,
                        nthreads,
                        allocation,
                        freq_hz,
                        workload_delta_mv=profile.vmin_delta_mv,
                    )
                )
    return campaign, points


def _sweep_inputs(spec):
    """Policy-style worst-case sweep: every config x workload delta."""
    core_sets = [
        cores_for(spec, nthreads, allocation)
        for nthreads in range(1, spec.n_cores + 1)
        for allocation in (Allocation.CLUSTERED, Allocation.SPREADED)
    ]
    deltas = [p.vmin_delta_mv for p in characterization_set()]
    return core_sets, deltas


def _curve_axis(spec):
    return range(spec.nominal_voltage_mv, spec.min_voltage_mv - 1, -1)


def _run_scalar_pipeline(campaign, points):
    spec = campaign.spec
    searches = [oracle.measure_safe_vmin(campaign, point) for point in points]
    scans = [
        oracle.scan_unsafe_region(
            campaign, point, safe_vmin_mv=search.safe_vmin_mv
        )
        for point, search in zip(points, searches)
    ]
    curves = oracle.pfail_curves(campaign, points, _curve_axis(spec))
    core_sets, deltas = _sweep_inputs(spec)
    model = campaign.vmin_model
    sweep = [
        [
            [model.safe_vmin_mv(freq_hz, cores, delta) for delta in deltas]
            for cores in core_sets
        ]
        for freq_hz in spec.frequency_steps()
    ]
    return searches, scans, curves, sweep


def _run_vectorized_pipeline(campaign, points):
    spec = campaign.spec
    searches = campaign.measure_safe_vmin_batch(points)
    scans = campaign.scan_unsafe_region_batch(
        points,
        safe_vmins_mv=[search.safe_vmin_mv for search in searches],
    )
    curves = campaign.pfail_curves(points, _curve_axis(spec))
    core_sets, deltas = _sweep_inputs(spec)
    sweep = [
        safe_vmin_matrix(campaign.vmin_model, freq_hz, core_sets, deltas)
        for freq_hz in spec.frequency_steps()
    ]
    return searches, scans, curves, sweep


def test_cold_characterization_campaign_vectorized(benchmark, spec2):
    """Cold characterization pipeline through the kernels vs scalar loops."""
    scalar_campaign, points = _bench_campaign(spec2)
    kernel_campaign, _ = _bench_campaign(spec2)
    # Untimed warmup of both paths (imports, numpy ufunc dispatch and
    # adaptive-interpreter specialization all land on the first pass),
    # then best-of-3 timings so one scheduler hiccup cannot skew the
    # recorded ratio.
    _run_scalar_pipeline(scalar_campaign, points)
    _run_vectorized_pipeline(kernel_campaign, points)
    scalar_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        ref_searches, ref_scans, ref_curves, ref_sweep = (
            _run_scalar_pipeline(scalar_campaign, points)
        )
        scalar_s = min(scalar_s, time.perf_counter() - start)

    timing = {"seconds": float("inf")}

    def vectorized():
        start = time.perf_counter()
        result = _run_vectorized_pipeline(kernel_campaign, points)
        timing["seconds"] = min(
            timing["seconds"], time.perf_counter() - start
        )
        return result

    searches, scans, curves, sweep = benchmark.pedantic(
        vectorized, rounds=3, iterations=1
    )

    assert [s.safe_vmin_mv for s in searches] == [
        s.safe_vmin_mv for s in ref_searches
    ]
    assert [s.crash_voltage_mv for s in scans] == [
        s.crash_voltage_mv for s in ref_scans
    ]
    assert curves == ref_curves
    assert [m.tolist() for m in sweep] == ref_sweep
    speedup = scalar_s / timing["seconds"]
    benchmark.extra_info["points"] = len(searches)
    benchmark.extra_info["step_mv"] = BENCH_STEP_MV
    benchmark.extra_info["scalar_seconds"] = round(scalar_s, 4)
    benchmark.extra_info["vectorized_seconds"] = round(
        timing["seconds"], 4
    )
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    assert speedup >= MIN_CAMPAIGN_SPEEDUP


def test_cold_characterization_campaign_scalar_reference(benchmark, spec2):
    """The scalar pipeline itself, kept as the comparison baseline."""
    campaign, points = _bench_campaign(spec2)
    searches, scans, curves, sweep = run_once(
        benchmark, _run_scalar_pipeline, campaign, points
    )
    benchmark.extra_info["points"] = len(searches)
    benchmark.extra_info["step_mv"] = BENCH_STEP_MV
    assert len(scans) == len(searches) == len(curves)
    assert len(sweep) == len(campaign.spec.frequency_steps())


def test_energy_measure_batch_grid(benchmark, spec2):
    """One-call energy sweep over the thread x allocation x freq grid."""
    spec = spec2
    configs = [
        (nthreads, allocation, freq_hz)
        for nthreads in range(1, spec.n_cores + 1)
        for allocation in (Allocation.CLUSTERED, Allocation.SPREADED)
        for freq_hz in BENCH_FREQS
    ]
    pool = characterization_set()

    def batched():
        runner = EnergyRunner(spec)
        return [
            runner.measure_batch(profile, configs) for profile in pool
        ]

    grids = run_once(benchmark, batched)

    # Per-config loop for the recorded speedup (same runner class,
    # scalar entry point).
    start = time.perf_counter()
    runner = EnergyRunner(spec)
    scalar = [
        [runner.measure(profile, *config) for config in configs]
        for profile in pool
    ]
    scalar_s = time.perf_counter() - start

    assert [
        [m.energy_j for m in row] for row in grids
    ] == [[m.energy_j for m in row] for row in scalar]
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["benchmarks"] = len(pool)
    benchmark.extra_info["scalar_seconds"] = round(scalar_s, 4)
    benchmark.extra_info["measurements"] = len(pool) * len(configs)


def test_policy_table_from_characterization(benchmark):
    """Policy-table construction (batched safe-Vmin matrix underneath)."""
    from repro.core.policy import VminPolicyTable

    table = run_once(
        benchmark, VminPolicyTable.from_characterization, xgene2_spec()
    )
    assert table is not None


def test_platform_registry_resolution(benchmark):
    """Declarative-bundle resolution across every consumer model layer.

    Registry lookups happen once per model construction — outside the
    kernel hot loops — so a cold resolve of every registered platform
    through every consumer (Vmin, power, droop, faults, thermal) must
    stay cheap. New in the registry PR: no committed baseline entry,
    the bench records the cost going forward.
    """
    from repro.platform.registry import get_platform, platform_keys
    from repro.platform.thermal import ThermalModel
    from repro.power.model import PowerModel
    from repro.vmin.droop import DroopModel
    from repro.vmin.faults import FaultModel
    from repro.vmin.model import VminModel

    def resolve_all():
        models = []
        for key in platform_keys():
            spec = get_platform(key).spec
            models.append(
                (
                    VminModel(spec),
                    PowerModel(spec),
                    DroopModel(spec),
                    FaultModel(spec=spec),
                    ThermalModel(spec),
                )
            )
        return models

    models = benchmark(resolve_all)
    assert len(models) == len(platform_keys())
