"""Property-based kernel/scalar equivalence tests.

The contract of :mod:`repro.kernels` is *bit-for-bit* equality with the
scalar reference paths — same floating-point operation order, same
rounding, same analytic residue placement — so every assertion here uses
exact ``==``, never approximate closeness. The campaign-level reference
is the level-by-level analytic campaign in :mod:`tests.campaign_oracle`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import Allocation
from repro.kernels import (
    MIX_ORDER,
    analytic_outcome_counts,
    chip_power_grid,
    evaluate_grid,
    outcome_mix_grid,
    pfail_grid,
    safe_vmin_grid,
    safe_vmin_matrix,
)
from repro.platform.chip import ChipState
from repro.platform.specs import xgene2_spec, xgene3_spec
from repro.power.model import PowerModel
from repro.vmin.characterize import VminCampaign
from repro.vmin.faults import FaultModel
from repro.vmin.model import VminModel

from tests import campaign_oracle as oracle

SPEC2 = xgene2_spec()
SPEC3 = xgene3_spec()
VMIN2 = VminModel(SPEC2)
VMIN3 = VminModel(SPEC3)
FAULTS = FaultModel()
POWER2 = PowerModel(SPEC2)

spec_and_model = st.sampled_from([(SPEC2, VMIN2), (SPEC3, VMIN3)])


def core_sets_strategy(spec):
    return st.lists(
        st.sets(
            st.integers(0, spec.n_cores - 1), min_size=1,
            max_size=spec.n_cores,
        ).map(lambda s: tuple(sorted(s))),
        min_size=1,
        max_size=8,
    )


@st.composite
def vmin_grids(draw):
    spec, model = draw(spec_and_model)
    sets = draw(core_sets_strategy(spec))
    n = len(sets)
    freqs = draw(
        st.lists(
            st.sampled_from(spec.frequency_steps()), min_size=n, max_size=n
        )
    )
    deltas = draw(
        st.lists(
            st.floats(-30.0, 40.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    return spec, model, freqs, sets, deltas


class TestVminKernel:
    @given(vmin_grids())
    @settings(max_examples=60, deadline=None)
    def test_evaluate_grid_matches_scalar_exactly(self, case):
        spec, model, freqs, sets, deltas = case
        grid = evaluate_grid(model, freqs, sets, deltas)
        for i in range(len(grid)):
            scalar = model.evaluate(freqs[i], sets[i], deltas[i])
            assert grid.total_mv[i] == scalar.total_mv
            assert grid.base_mv[i] == scalar.base_mv
            assert grid.attenuation[i] == scalar.attenuation
            assert grid.core_offset_mv[i] == scalar.core_offset_mv
            assert grid.droop_class[i] == scalar.droop_class
            assert grid.freq_class[i] == scalar.freq_class

    @given(vmin_grids())
    @settings(max_examples=30, deadline=None)
    def test_safe_vmin_grid_matches_scalar(self, case):
        spec, model, freqs, sets, deltas = case
        got = safe_vmin_grid(model, freqs, sets, deltas)
        want = [
            model.safe_vmin_mv(freqs[i], sets[i], deltas[i])
            for i in range(len(sets))
        ]
        assert got.tolist() == want

    @given(vmin_grids())
    @settings(max_examples=30, deadline=None)
    def test_safe_vmin_matrix_matches_scalar(self, case):
        spec, model, freqs, sets, deltas = case
        matrix = safe_vmin_matrix(model, freqs[0], sets, deltas)
        assert matrix.shape == (len(sets), len(deltas))
        for s, cores in enumerate(sets):
            for d, delta in enumerate(deltas):
                assert matrix[s, d] == model.safe_vmin_mv(
                    freqs[0], cores, delta
                )


@st.composite
def fault_grids(draw):
    n = draw(st.integers(1, 40))
    voltages = draw(
        st.lists(st.integers(400, 1100), min_size=n, max_size=n)
    )
    safes = draw(
        st.lists(
            st.floats(450.0, 1050.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    droops = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return (
        np.asarray(voltages, dtype=np.int64),
        np.asarray(safes, dtype=np.float64),
        np.asarray(droops, dtype=np.int64),
    )


class TestFaultKernel:
    @given(fault_grids())
    @settings(max_examples=80, deadline=None)
    def test_pfail_grid_matches_scalar(self, case):
        voltages, safes, droops = case
        grid = pfail_grid(FAULTS, voltages, safes, droops)
        for i in range(len(voltages)):
            assert grid[i] == FAULTS.pfail(
                int(voltages[i]), float(safes[i]), int(droops[i])
            )

    @given(fault_grids())
    @settings(max_examples=80, deadline=None)
    def test_outcome_mix_grid_matches_scalar(self, case):
        voltages, safes, droops = case
        grid = outcome_mix_grid(FAULTS, voltages, safes, droops)
        for i in range(len(voltages)):
            mix = FAULTS.outcome_mix(
                int(voltages[i]), float(safes[i]), int(droops[i])
            )
            assert tuple(mix) == MIX_ORDER  # residue placement order
            assert grid[i].tolist() == [mix[tag] for tag in MIX_ORDER]

    @given(fault_grids(), st.integers(1, 2000))
    @settings(max_examples=80, deadline=None)
    def test_analytic_counts_match_run_level_rounding(self, case, runs):
        voltages, safes, droops = case
        pf = pfail_grid(FAULTS, voltages, safes, droops)
        mix = outcome_mix_grid(FAULTS, voltages, safes, droops)
        failures, split = analytic_outcome_counts(pf, mix, runs)
        for i in range(len(voltages)):
            # The scalar campaign's analytic branch, verbatim.
            want_failures = int(round(float(pf[i]) * runs))
            if pf[i] > 0.0:
                want_failures = max(want_failures, 1)
            assert failures[i] == want_failures
            scalar_mix = FAULTS.outcome_mix(
                int(voltages[i]), float(safes[i]), int(droops[i])
            )
            want_split = {
                tag: int(round(want_failures * share))
                for tag, share in scalar_mix.items()
            }
            residue = want_failures - sum(want_split.values())
            want_split[max(scalar_mix, key=scalar_mix.get)] += residue
            assert split[i].tolist() == [
                want_split[tag] for tag in MIX_ORDER
            ]
            assert int(split[i].sum()) == want_failures


@st.composite
def campaign_cases(draw):
    spec = draw(st.sampled_from([SPEC2, SPEC3]))
    configs = []
    for _ in range(draw(st.integers(1, 5))):
        nthreads = draw(st.integers(1, spec.n_cores))
        allocation = draw(
            st.sampled_from([Allocation.CLUSTERED, Allocation.SPREADED])
        )
        freq = draw(st.sampled_from(spec.frequency_steps()))
        delta = draw(st.floats(-15.0, 30.0, allow_nan=False))
        configs.append((nthreads, allocation, freq, delta))
    return spec, configs, draw(st.integers(2, 25))


def assert_same_result(got, want):
    """Equal results, and every step's outcomes in the same dict order.

    Dict order matters: it is what the cache payloads record.
    """
    assert got == want
    assert [list(s.outcomes.items()) for s in got.steps] == [
        list(s.outcomes.items()) for s in want.steps
    ]


class TestCampaignEquivalence:
    @given(campaign_cases())
    @settings(max_examples=20, deadline=None)
    def test_batched_campaign_matches_scalar_reference(self, case):
        spec, configs, step_mv = case
        campaign = VminCampaign(spec, step_mv=step_mv)
        points = [
            campaign.point("wl", nt, alloc, freq, workload_delta_mv=delta)
            for nt, alloc, freq, delta in configs
        ]
        searches = campaign.measure_safe_vmin_batch(points)
        scans = campaign.scan_unsafe_region_batch(points)
        for point, search, scan in zip(points, searches, scans):
            ref_search = oracle.measure_safe_vmin(campaign, point)
            ref_scan = oracle.scan_unsafe_region(campaign, point)
            assert_same_result(search, ref_search)
            assert_same_result(scan, ref_scan)
            # The single-point entry points dispatch to the batches.
            assert_same_result(campaign.measure_safe_vmin(point), ref_search)
            assert_same_result(campaign.scan_unsafe_region(point), ref_scan)

    @given(campaign_cases())
    @settings(max_examples=15, deadline=None)
    def test_pfail_curve_matches_scalar(self, case):
        spec, configs, step_mv = case
        campaign = VminCampaign(spec, step_mv=step_mv)
        nt, alloc, freq, delta = configs[0]
        point = campaign.point("wl", nt, alloc, freq, workload_delta_mv=delta)
        voltages = range(
            spec.nominal_voltage_mv, spec.min_voltage_mv - 1, -step_mv
        )
        assert campaign.pfail_curve(point, voltages) == oracle.pfail_curve(
            campaign, point, voltages
        )

    @given(campaign_cases())
    @settings(max_examples=15, deadline=None)
    def test_pfail_curves_batch_matches_per_point(self, case):
        spec, configs, step_mv = case
        campaign = VminCampaign(spec, step_mv=step_mv)
        points = [
            campaign.point("wl", nt, alloc, freq, workload_delta_mv=delta)
            for nt, alloc, freq, delta in configs
        ]
        voltages = range(
            spec.nominal_voltage_mv, spec.min_voltage_mv - 1, -step_mv
        )
        assert campaign.pfail_curves(points, voltages) == (
            oracle.pfail_curves(campaign, points, voltages)
        )


@st.composite
def power_cases(draw):
    n = draw(st.integers(1, 12))
    voltages = draw(
        st.lists(st.integers(500, 1050), min_size=n, max_size=n)
    )
    freqs = draw(
        st.lists(
            st.sampled_from(SPEC2.frequency_steps()),
            min_size=n,
            max_size=n,
        )
    )
    acts = draw(
        st.lists(
            st.floats(0.0, 1.5, allow_nan=False), min_size=n, max_size=n
        )
    )
    mems = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    sets = draw(
        st.lists(
            st.sets(
                st.integers(0, SPEC2.n_cores - 1), min_size=1,
                max_size=SPEC2.n_cores,
            ).map(lambda s: tuple(sorted(s))),
            min_size=n,
            max_size=n,
        )
    )
    mult = draw(st.floats(0.1, 3.0, allow_nan=False))
    return voltages, freqs, acts, sets, mems, mult


class TestPowerKernel:
    @given(power_cases())
    @settings(max_examples=40, deadline=None)
    def test_chip_power_grid_matches_scalar_exactly(self, case):
        voltages, freqs, acts, sets, mems, mult = case
        grid = chip_power_grid(
            POWER2, voltages, freqs, acts, sets, mems,
            leakage_multiplier=mult,
        )
        for i in range(len(grid)):
            state = ChipState(
                spec=SPEC2,
                voltage_mv=voltages[i],
                pmd_frequencies_hz=(freqs[i],) * SPEC2.n_pmds,
                active_cores=frozenset(sets[i]),
            )
            want = POWER2.chip_power(
                state,
                {core: acts[i] for core in sets[i]},
                mems[i],
                leakage_multiplier=mult,
            )
            assert grid.dynamic_w[i] == want.dynamic_w
            assert grid.leakage_w[i] == want.leakage_w
            assert grid.pmd_overhead_w[i] == want.pmd_overhead_w
            assert grid.uncore_w[i] == want.uncore_w
            assert grid.external_w[i] == want.external_w
            assert grid.total_w[i] == want.total_w
