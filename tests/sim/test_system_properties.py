"""Property-based tests on whole-system invariants.

Random small workloads replayed under the Baseline and the daemon must
satisfy conservation and safety invariants regardless of composition.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.policies.daemon import OnlineMonitoringDaemon
from repro.core.policy import VminPolicyTable
from repro.perf.contention import L2_SHARING_PENALTY
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec
from repro.policies.governors import BaselinePolicy
from repro.policies.registry import resolve_policy
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload
from repro.workloads.suites import evaluation_pool

SPEC2 = xgene2_spec()
POLICY2 = VminPolicyTable.from_characterization(SPEC2)
_POOL = [p.name for p in evaluation_pool()]


@st.composite
def workloads(draw):
    """Small random workloads that fit the 8-core chip at issue time."""
    jobs = []
    count = draw(st.integers(1, 6))
    for job_id in range(count):
        name = draw(st.sampled_from(_POOL))
        from repro.workloads.suites import get_benchmark

        parallel = get_benchmark(name).parallel
        nthreads = draw(st.sampled_from((2, 4))) if parallel else 1
        start = draw(
            st.floats(0.0, 120.0).map(lambda v: round(v, 2))
        )
        jobs.append(JobSpec(job_id, name, nthreads, start))
    return Workload(
        jobs=tuple(jobs), duration_s=300.0, max_cores=8, seed=0
    )


#: Three arrivals at t=0 on which the daemon's placement finishes 3.4 %
#: sooner than the spread baseline (148.82 s against 154.10 s): bzip2
#: stops sharing a PMD's L2 with CG, at nominal voltage and undervolted
#: alike.
PLACEMENT_WINS = Workload(
    jobs=(
        JobSpec(0, "CG", 2, 0.0),
        JobSpec(1, "bzip2", 1, 0.0),
        JobSpec(2, "CG", 4, 0.0),
    ),
    duration_s=300.0,
    max_cores=8,
    seed=0,
)


def _makespan(workload, key):
    policy = resolve_policy(key, SPEC2, table=POLICY2)
    return ServerSystem(Chip(SPEC2), workload, policy).run().makespan_s


class TestSystemInvariants:
    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_baseline_conservation(self, workload):
        system = ServerSystem(
            Chip(SPEC2), workload, BaselinePolicy()
        )
        result = system.run()
        # Everything completes, in order, with positive energy.
        assert all(p.finish_s is not None for p in result.processes)
        assert all(
            p.finish_s >= p.start_s >= p.arrival_s
            for p in result.processes
        )
        assert result.energy_j > 0
        assert result.makespan_s == max(
            p.finish_s for p in result.processes
        )
        # All cores released at the end.
        assert system.chip.active_cores == frozenset()

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_daemon_safety_and_conservation(self, workload):
        daemon = OnlineMonitoringDaemon(SPEC2, policy=POLICY2)
        system = ServerSystem(Chip(SPEC2), workload, daemon)
        result = system.run()
        assert result.violations == []
        assert all(p.finish_s is not None for p in result.processes)
        # Rail always within the regulator's range.
        for transition in system.chip.slimpro.transitions:
            assert (
                SPEC2.min_voltage_mv
                <= transition.to_mv
                <= SPEC2.nominal_voltage_mv
            )

    @given(workloads())
    @example(PLACEMENT_WINS)
    @settings(max_examples=15, deadline=None)
    def test_undervolting_never_moves_the_makespan(self, workload):
        # The rail sets power, never progress: against the same
        # placement and clocks, the trimmed rail finishes at the same
        # instant, to the bit.
        assert _makespan(workload, "daemon") == _makespan(
            workload, "daemon-placement"
        )
        assert _makespan(workload, "safe-vmin") == _makespan(
            workload, "baseline-ondemand"
        )

    @given(workloads())
    @example(PLACEMENT_WINS)
    @settings(max_examples=15, deadline=None)
    def test_placement_win_bounded_by_l2_sharing(self, workload):
        base = _makespan(workload, "baseline-ondemand")
        # Placement can only take a PMD's L2 sharing off a thread's
        # memory time, which sharing inflates by at most
        # 1 + L2_SHARING_PENALTY.
        placed = _makespan(workload, "daemon-placement")
        assert placed >= base / (1.0 + L2_SHARING_PENALTY)
        # The daemon trades a bounded amount of time for energy, never
        # a pathological one.
        assert _makespan(workload, "daemon") <= base * 2.5
