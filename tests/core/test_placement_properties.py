"""Property-based tests on the placement engine's invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import PlacementEngine
from repro.platform.specs import get_spec, xgene3_spec
from repro.sim.process import SimProcess, WorkloadClass
from repro.workloads.suites import get_benchmark
from tests.allocation_oracle import greedy_plan

SPEC3 = xgene3_spec()
ENGINE = PlacementEngine(SPEC3)
SPEC_XL = get_spec("xgene3-xl")

_CLASSES = (
    WorkloadClass.CPU_INTENSIVE,
    WorkloadClass.MEMORY_INTENSIVE,
    WorkloadClass.UNKNOWN,
)
_NAMES = ("namd", "CG", "milc", "EP", "gcc")


@st.composite
def process_sets(draw, spec=SPEC3):
    """Random process mixes that fit on ``spec`` (default: the 32-core chip)."""
    processes = []
    used = 0
    count = draw(st.integers(0, 10))
    for pid in range(count):
        nthreads = draw(st.integers(1, 8))
        if used + nthreads > spec.n_cores:
            break
        used += nthreads
        proc = SimProcess(
            pid=pid,
            profile=get_benchmark(draw(st.sampled_from(_NAMES))),
            nthreads=nthreads,
            arrival_s=0.0,
        )
        proc.observed_class = draw(st.sampled_from(_CLASSES))
        processes.append(proc)
    return processes


class TestPlanInvariants:
    @given(process_sets())
    @settings(max_examples=60, deadline=None)
    def test_assignments_cover_disjoint_cores(self, processes):
        plan = ENGINE.plan(processes)
        all_cores = [
            core
            for cores in plan.assignments.values()
            for core in cores
        ]
        assert len(all_cores) == len(set(all_cores))
        assert all(0 <= c < SPEC3.n_cores for c in all_cores)

    @given(process_sets())
    @settings(max_examples=60, deadline=None)
    def test_every_process_gets_its_threads(self, processes):
        plan = ENGINE.plan(processes)
        for proc in processes:
            assert len(plan.assignments[proc.pid]) == proc.nthreads

    @given(process_sets())
    @settings(max_examples=60, deadline=None)
    def test_every_pmd_has_a_frequency(self, processes):
        plan = ENGINE.plan(processes)
        assert set(plan.pmd_freqs_hz) == set(range(SPEC3.n_pmds))
        for freq in plan.pmd_freqs_hz.values():
            assert freq in SPEC3.frequency_steps()

    @given(process_sets())
    @settings(max_examples=60, deadline=None)
    def test_cpu_threads_never_on_slow_pmds(self, processes):
        plan = ENGINE.plan(processes)
        class_of = {p.pid: p.observed_class for p in processes}
        for pid, cores in plan.assignments.items():
            if class_of[pid] is not WorkloadClass.MEMORY_INTENSIVE:
                for core in cores:
                    pmd = SPEC3.pmd_of_core(core)
                    assert plan.pmd_freqs_hz[pmd] == ENGINE.cpu_freq_hz

    @given(process_sets())
    @settings(max_examples=60, deadline=None)
    def test_voltage_covers_every_running_benchmark(self, processes):
        from repro.vmin.model import VminModel

        plan = ENGINE.plan(processes)
        if plan.voltage_mv is None or not processes:
            return
        model = VminModel(SPEC3)
        active = [
            core
            for cores in plan.assignments.values()
            for core in cores
        ]
        for proc in processes:
            required = model.safe_vmin_mv(
                plan.max_active_freq_hz,
                active,
                proc.profile.vmin_delta_mv,
            )
            assert plan.voltage_mv >= required

    @given(process_sets())
    @settings(max_examples=60, deadline=None)
    def test_utilized_pmds_counted_correctly(self, processes):
        plan = ENGINE.plan(processes)
        pmds = {
            SPEC3.pmd_of_core(core)
            for cores in plan.assignments.values()
            for core in cores
        }
        assert plan.utilized_pmds == len(pmds)

    @given(process_sets())
    @settings(max_examples=30, deadline=None)
    def test_retune_never_moves_threads(self, processes):
        # Assign initial cores via a plan, then retune: assignments must
        # be identical (case (b): no migrations).
        plan = ENGINE.plan(processes)
        for proc in processes:
            proc.start(0.0, plan.assignments[proc.pid])
        retuned = ENGINE.retune(processes)
        for proc in processes:
            assert retuned.assignments[proc.pid] == tuple(proc.cores)


@pytest.mark.parametrize(
    "engine",
    [ENGINE, PlacementEngine(SPEC_XL)],
    ids=["xgene3", "xgene3-xl"],
)
class TestPlanMatchesGreedyOracle:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_assignments_equal_sequential_greedy_picks(self, engine, data):
        processes = data.draw(process_sets(engine.spec))
        plan = engine.plan(processes)
        assert plan.assignments == greedy_plan(engine.spec, processes)
