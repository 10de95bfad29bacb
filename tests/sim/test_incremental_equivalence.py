"""Incremental-refresh equivalence: fast path ≡ full-refresh oracle.

The simulator's incremental hot path (dirty-set refresh, execution-state
cache, reschedule elision) claims *bit-for-bit* identity with the
original recompute-everything flow, which survives as
:class:`tests.replay_oracle.FullRefreshSystem`. These properties
replay random workloads under both modes and compare every observable
of the run — not approximately, but with ``==`` on the raw floats.

A separate regression pins the energy-accounting semantics at the end of
a run: energy integrates exactly up to the last dispatched event, which
with a ticking policy trails the last process finish by the idle
monitor periods still in the queue — and covers nothing beyond.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.policy import VminPolicyTable
from repro.perf.contention import bandwidth_utilization, contention_factor
from repro.perf.model import bandwidth_demand_gbs, execution_state
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec, xgene3_spec
from repro.platform.thermal import ThermalModel
from repro.power.model import PowerModel
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.policies.governors import BaselinePolicy
from repro.policies.safevmin import SafeVminPolicy
from repro.policies.surfaces import Policy
from repro.sim.system import ServerSystem, SimLane
from repro.telemetry.manifest import canonical_json
from repro.workloads.generator import JobSpec, Workload
from repro.workloads.suites import evaluation_pool, get_benchmark

from tests.replay_oracle import (
    FullRefreshSystem,
    observables,
    replay_observables,
)

SPEC2 = xgene2_spec()
SPEC3 = xgene3_spec()
POLICY2 = VminPolicyTable.from_characterization(SPEC2)
_POOL = [p.name for p in evaluation_pool()]


@st.composite
def workloads(draw, max_cores=8):
    """Small random workloads that fit the 8-core chip at issue time."""
    jobs = []
    count = draw(st.integers(1, 6))
    for job_id in range(count):
        name = draw(st.sampled_from(_POOL))
        parallel = get_benchmark(name).parallel
        nthreads = draw(st.sampled_from((2, 4))) if parallel else 1
        start = draw(st.floats(0.0, 120.0).map(lambda v: round(v, 2)))
        jobs.append(JobSpec(job_id, name, nthreads, start))
    return Workload(
        jobs=tuple(jobs), duration_s=300.0, max_cores=max_cores, seed=0
    )


def run_both(workload, make_policy, spec=SPEC2, **kwargs):
    fast = ServerSystem(
        Chip(spec), workload, make_policy(), **kwargs
    ).run()
    oracle = FullRefreshSystem(
        Chip(spec),
        workload,
        make_policy(),
        **kwargs,
    ).run()
    return observables(fast), observables(oracle)


class TestIncrementalEquivalence:
    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_baseline_bit_identical(self, workload):
        fast, oracle = run_both(workload, BaselinePolicy)
        assert fast == oracle

    @given(workloads())
    @settings(max_examples=15, deadline=None)
    def test_safe_vmin_bit_identical(self, workload):
        fast, oracle = run_both(
            workload, lambda: SafeVminPolicy(SPEC2, policy=POLICY2)
        )
        assert fast == oracle

    @given(workloads())
    @settings(max_examples=15, deadline=None)
    def test_daemon_bit_identical(self, workload):
        fast, oracle = run_both(
            workload,
            lambda: OnlineMonitoringDaemon(SPEC2, policy=POLICY2),
        )
        assert fast == oracle

    @given(workloads(max_cores=32), st.sampled_from([None, 0.5]))
    @settings(max_examples=10, deadline=None)
    def test_daemon_xgene3_with_and_without_trace(
        self, workload, trace_period_s
    ):
        policy3 = VminPolicyTable.from_characterization(SPEC3)
        fast, oracle = run_both(
            workload,
            lambda: OnlineMonitoringDaemon(SPEC3, policy=policy3),
            spec=SPEC3,
            trace_period_s=trace_period_s,
        )
        assert fast == oracle

    def test_rail_only_refresh_bit_identical(self):
        # At t=1 s an arrival finds all eight cores busy: the daemon's
        # fail-safe raise moves the rail and nothing is placed, so the
        # next refresh sees a rail change alone and must recompute the
        # power from it.
        jobs = tuple(JobSpec(i, "mcf", 1, 0.0) for i in range(4)) + (
            JobSpec(4, "mcf", 4, 0.0),
            JobSpec(5, "mcf", 1, 1.0),
        )
        workload = Workload(
            jobs=jobs, duration_s=300.0, max_cores=8, seed=0
        )
        fast, oracle = run_both(
            workload,
            lambda: OnlineMonitoringDaemon(SPEC2, policy=POLICY2),
        )
        assert fast == oracle

    def test_same_instant_phase_events_bit_identical(self):
        # Two copies of one phased program started together cross every
        # phase boundary at one instant, and at an 85 degC ambient the
        # trimmed rail sits below the thermally shifted safe Vmin there:
        # both flows must dispatch and audit those events alike.
        workload = Workload(
            jobs=tuple(JobSpec(i, "stream-compute", 1, 0.0) for i in (0, 1)),
            duration_s=300.0,
            max_cores=8,
            seed=0,
        )
        replays = []
        for system_cls in (ServerSystem, FullRefreshSystem):
            lane = SimLane(thermal=ThermalModel(SPEC2, ambient_c=85.0))
            system = system_cls(
                Chip(SPEC2),
                workload,
                SafeVminPolicy(SPEC2, policy=POLICY2),
                lanes=[lane],
            )
            system.run()
            replays.append(replay_observables(system, lane))
        fast, oracle = replays
        assert fast["violations"]
        assert fast == oracle


class TestIncrementalDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        """Two incremental same-seed runs: identical results + metrics."""
        jobs = tuple(
            JobSpec(i, name, 1, 10.0 * i)
            for i, name in enumerate(("mcf", "lbm", "namd", "povray"))
        )
        workload = Workload(
            jobs=jobs, duration_s=300.0, max_cores=8, seed=7
        )

        def one_run():
            with telemetry.session() as registry:
                result = ServerSystem(
                    Chip(SPEC2),
                    workload,
                    OnlineMonitoringDaemon(SPEC2, policy=POLICY2),
                ).run()
                snap = registry.snapshot()
            return observables(result), snap

        obs_a, snap_a = one_run()
        obs_b, snap_b = one_run()
        assert json.dumps(obs_a, sort_keys=True) == json.dumps(
            obs_b, sort_keys=True
        )
        # The full metric snapshot — including the new refresh/elision
        # counters — must serialize to the same bytes run over run.
        assert canonical_json(snap_a) == canonical_json(snap_b)
        counters = snap_a["counters"]
        assert counters[telemetry.names.SIM_REFRESH_INCREMENTAL] > 0
        assert counters[telemetry.names.SIM_RESCHEDULE_ELIDED] > 0
        assert counters[telemetry.names.SIM_REFRESH_FULL] > 0


class _IdleTickPolicy(Policy):
    """No-op policy that keeps ticking past the last finish."""

    monitor_period_s = 7.0


class TestIdleTailEnergy:
    def test_energy_integrates_to_last_event_only(self):
        """Pin the end-of-run energy semantics with hand integration.

        One single-threaded, single-phase job ("mcf") runs for ``T_f``
        seconds at constant power; the no-op monitor ticks every 7 s.
        Energy must equal active power integrated up to ``T_f`` plus
        idle power over the gap up to the *last* tick event (the first
        tick at or after ``T_f``) — and nothing beyond it, even though
        nothing stops the wall clock there. The hand integration
        replays the meter's per-interval ``+= power * dt`` summation so
        the comparison is exact, not approximate.
        """
        workload = Workload(
            jobs=(JobSpec(0, "mcf", 1, 0.0),),
            duration_s=600.0,
            max_cores=8,
            seed=0,
        )
        system = ServerSystem(
            Chip(SPEC2),
            workload,
            _IdleTickPolicy(),
            trace_period_s=None,
        )
        result = system.run()
        finish_s = result.processes[0].finish_s
        assert finish_s is not None

        # Independently evaluate the two power levels from the models:
        # one process on core 0 at fmax, then the all-idle chip.
        behaviour = get_benchmark("mcf")
        demand = bandwidth_demand_gbs(behaviour, SPEC2, SPEC2.fmax_hz)
        crowd = contention_factor(SPEC2, [demand])
        bw_util = bandwidth_utilization(SPEC2, [demand])
        exec_state = execution_state(
            behaviour,
            SPEC2,
            SPEC2.fmax_hz,
            nthreads=1,
            shares_pmd=False,
            contention=crowd,
        )
        power_model = PowerModel(SPEC2)
        active_chip = Chip(SPEC2)
        active_chip.occupy(0, 0)
        active_w = power_model.chip_power(
            active_chip.state(),
            {0: exec_state.effective_activity},
            bw_util,
        ).total_w
        idle_w = power_model.chip_power(
            Chip(SPEC2).state(), {}, 0.0
        ).total_w

        # Event times: ticks by repeated 7 s addition (as the handler
        # schedules them), the finish interleaved; the run ends at the
        # first tick at/after the finish.
        period = _IdleTickPolicy.monitor_period_s
        times = []
        t = period
        while t < finish_s:
            times.append(t)
            t += period
        last_event_s = t
        times.extend([finish_s, last_event_s])

        expected_j = 0.0
        prev = 0.0
        for event_s in times:
            power_w = active_w if event_s <= finish_s else idle_w
            expected_j += power_w * (event_s - prev)
            prev = event_s

        assert result.energy_j == expected_j
        assert result.makespan_s == finish_s
        assert last_event_s > finish_s  # the idle tail is really there
