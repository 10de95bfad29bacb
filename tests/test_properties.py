"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.allocation import Allocation, cores_for, pick_free_cores
from repro.perf.contention import contention_factor, l2_sharing_factor
from repro.perf.model import (
    bandwidth_demand_gbs,
    execution_state,
    solo_slowdown,
)
from repro.platform.specs import xgene2_spec, xgene3_spec
from repro.power.energy import EnergyMeter
from repro.power.model import PowerModel
from repro.platform.chip import ChipState
from repro.sim.engine import EventQueue
from repro.sim.tracing import moving_average
from repro.vmin.droop import droop_bin_index, droop_ladder
from repro.vmin.faults import FaultModel
from repro.vmin.model import VminModel, variation_attenuation
from repro.workloads.profiles import BenchmarkProfile, Suite

SPEC2 = xgene2_spec()
SPEC3 = xgene3_spec()
VMIN3 = VminModel(SPEC3)
FAULTS = FaultModel()
POWER3 = PowerModel(SPEC3)


def profiles(draw):
    return BenchmarkProfile(
        name="gen",
        suite=Suite.SPEC_CPU2006,
        parallel=draw(st.booleans()),
        ref_time_s=draw(st.floats(1.0, 500.0)),
        mem_fraction=draw(st.floats(0.0, 1.0)),
        l3_rate_per_mcycles=draw(st.floats(0.0, 20000.0)),
        bandwidth_gbs=draw(st.floats(0.0, 10.0)),
        l2_sensitivity=draw(st.floats(0.0, 1.0)),
        activity=draw(st.floats(0.1, 1.5)),
        vmin_delta_mv=draw(st.floats(-20.0, 20.0)),
    )


profile_strategy = st.composite(profiles)()

freq_strategy = st.sampled_from(SPEC3.frequency_steps())
nthreads_strategy = st.integers(1, SPEC3.n_cores)
allocation_strategy = st.sampled_from(list(Allocation))


class TestAllocationProperties:
    @given(nthreads_strategy, allocation_strategy)
    def test_cores_unique_and_in_range(self, nthreads, allocation):
        cores = cores_for(SPEC3, nthreads, allocation)
        assert len(cores) == nthreads
        assert len(set(cores)) == nthreads
        assert all(0 <= c < SPEC3.n_cores for c in cores)

    @given(nthreads_strategy)
    def test_spreaded_uses_at_least_as_many_pmds(self, nthreads):
        spread = cores_for(SPEC3, nthreads, Allocation.SPREADED)
        packed = cores_for(SPEC3, nthreads, Allocation.CLUSTERED)

        def pmds(cores):
            return len({SPEC3.pmd_of_core(c) for c in cores})

        assert pmds(spread) >= pmds(packed)

    @given(
        st.sets(st.integers(0, 31), min_size=4, max_size=31),
        st.integers(1, 4),
        allocation_strategy,
    )
    def test_pick_free_cores_respects_free_set(
        self, free, nthreads, allocation
    ):
        free = sorted(free)
        if len(free) < nthreads:
            return
        chosen = pick_free_cores(SPEC3, free, nthreads, allocation)
        assert set(chosen) <= set(free)
        assert len(set(chosen)) == nthreads


class TestDroopProperties:
    @given(st.integers(1, 16))
    def test_bin_index_monotone_in_pmds(self, pmds):
        if pmds < SPEC3.n_pmds:
            assert droop_bin_index(SPEC3, pmds) <= droop_bin_index(
                SPEC3, pmds + 1
            )

    @given(st.integers(1, 16))
    def test_bin_index_within_ladder(self, pmds):
        assert 0 <= droop_bin_index(SPEC3, pmds) < len(
            droop_ladder(SPEC3)
        )


class TestVminProperties:
    @given(
        freq_strategy,
        st.sets(st.integers(0, 31), min_size=1, max_size=32),
        st.floats(-20.0, 20.0),
    )
    def test_vmin_bounded(self, freq, cores, delta):
        vmin = VMIN3.safe_vmin_mv(freq, cores, delta)
        assert 700 <= vmin <= SPEC3.nominal_voltage_mv

    @given(
        freq_strategy,
        st.sets(st.integers(0, 31), min_size=1, max_size=16),
    )
    def test_adding_cores_never_lowers_base_requirement(self, freq, cores):
        # Adding a core can only keep or grow the utilized-PMD set, so
        # the droop class (and base Vmin) never shrinks.
        before = VMIN3.evaluate(freq, cores)
        extra = (max(cores) + 1) % SPEC3.n_cores
        after = VMIN3.evaluate(freq, set(cores) | {extra})
        assert after.droop_class >= before.droop_class
        assert after.base_mv >= before.base_mv

    @given(st.integers(1, 64))
    def test_attenuation_in_unit_interval(self, n):
        assert 0.0 < variation_attenuation(n) <= 1.0


class TestFaultProperties:
    @given(
        st.floats(600.0, 900.0),
        st.floats(700.0, 870.0),
        st.integers(0, 3),
    )
    def test_pfail_is_probability(self, voltage, vmin, klass):
        p = FAULTS.pfail(voltage, vmin, klass)
        assert 0.0 <= p <= 1.0

    @given(
        st.floats(700.0, 870.0),
        st.integers(0, 3),
        st.floats(0.0, 60.0),
        st.floats(0.0, 60.0),
    )
    def test_pfail_monotone(self, vmin, klass, depth_a, depth_b):
        lo, hi = sorted((depth_a, depth_b))
        assert FAULTS.pfail(vmin - hi, vmin, klass) >= FAULTS.pfail(
            vmin - lo, vmin, klass
        )

    @given(
        st.floats(600.0, 870.0),
        st.floats(700.0, 870.0),
        st.integers(0, 3),
    )
    def test_outcome_mix_normalised(self, voltage, vmin, klass):
        mix = FAULTS.outcome_mix(voltage, vmin, klass)
        assert math.isclose(sum(mix.values()), 1.0, rel_tol=1e-9)
        assert all(0 <= share <= 1 for share in mix.values())


class TestPerfProperties:
    @given(profile_strategy, freq_strategy)
    def test_slowdown_at_least_memory_floor(self, profile, freq):
        slow = solo_slowdown(profile, SPEC3, freq)
        assert slow >= profile.mem_fraction * 0.99

    @given(profile_strategy, freq_strategy)
    def test_demand_non_negative_and_bounded(self, profile, freq):
        demand = bandwidth_demand_gbs(profile, SPEC3, freq)
        assert 0.0 <= demand <= profile.bandwidth_gbs * 1.01

    @given(
        profile_strategy,
        freq_strategy,
        st.integers(1, 32),
        st.booleans(),
        st.floats(1.0, 5.0),
    )
    def test_execution_state_invariants(
        self, profile, freq, nthreads, shares, contention
    ):
        state = execution_state(
            profile, SPEC3, freq, nthreads, shares, contention
        )
        assert state.duration_s > 0
        assert 0.0 <= state.cpu_share <= 1.0
        assert state.l3_rate_per_mcycles >= 0.0
        assert state.effective_activity > 0.0

    @given(
        profile_strategy,
        st.integers(1, 32),
        st.booleans(),
        st.floats(1.0, 5.0),
    )
    def test_lower_frequency_never_faster(
        self, profile, nthreads, shares, contention
    ):
        fast = execution_state(
            profile, SPEC3, SPEC3.fmax_hz, nthreads, shares, contention
        )
        slow = execution_state(
            profile, SPEC3, SPEC3.fmin_hz, nthreads, shares, contention
        )
        assert slow.duration_s >= fast.duration_s

    @given(st.lists(st.floats(0.0, 50.0), max_size=40))
    def test_contention_factor_at_least_one(self, demands):
        assert contention_factor(SPEC3, demands) >= 1.0

    @given(st.floats(0.0, 1.0), st.booleans())
    def test_l2_factor_at_least_one(self, sensitivity, shares):
        assert l2_sharing_factor(sensitivity, shares) >= 1.0


class TestPowerProperties:
    @given(
        st.integers(700, 870),
        st.sets(st.integers(0, 31), max_size=32),
        st.floats(0.0, 1.0),
    )
    def test_power_positive_and_voltage_monotone(
        self, voltage, cores, util
    ):
        state_lo = ChipState(
            spec=SPEC3,
            voltage_mv=voltage,
            pmd_frequencies_hz=(SPEC3.fmax_hz,) * SPEC3.n_pmds,
            active_cores=frozenset(cores),
        )
        state_hi = ChipState(
            spec=SPEC3,
            voltage_mv=SPEC3.nominal_voltage_mv,
            pmd_frequencies_hz=(SPEC3.fmax_hz,) * SPEC3.n_pmds,
            active_cores=frozenset(cores),
        )
        loads = {c: 1.0 for c in cores}
        lo = POWER3.chip_power(state_lo, loads, util).total_w
        hi = POWER3.chip_power(state_hi, loads, util).total_w
        assert 0 < lo <= hi

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 10.0)),
            max_size=50,
        )
    )
    def test_energy_meter_matches_sum(self, intervals):
        meter = EnergyMeter()
        expected = 0.0
        for power, dt in intervals:
            meter.accumulate(power, dt)
            expected += power * dt
        assert math.isclose(
            meter.energy_j, expected, rel_tol=1e-9, abs_tol=1e-9
        )


class TestEngineProperties:
    @given(
        st.lists(
            st.floats(0.0, 1000.0), min_size=1, max_size=50
        )
    )
    def test_events_pop_in_time_order(self, times):
        queue = EventQueue()
        for t in times:
            queue.schedule(t, "e")
        popped = [queue.pop().time_s for _ in range(len(times))]
        assert popped == sorted(popped)

    @given(
        st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=60),
        st.integers(1, 10),
    )
    def test_moving_average_bounded_by_extremes(self, values, window):
        averaged = moving_average(values, window)
        assert len(averaged) == len(values)
        assert min(values) - 1e-9 <= min(averaged)
        assert max(averaged) <= max(values) + 1e-9
