"""A refused quiet-tick offer costs no array.

:class:`~repro.policies.surfaces.TickHorizon` builds its arrays, and so
its length, on their first read. A policy that refuses an offer from
the processes and its own state alone — the monitor refuses while a
process has no snapshot or no class yet, as right after an admission —
must leave the engine's builder (``ServerSystem._horizon_arrays``)
uncalled.
"""

import pytest

from repro.core.monitoring import MonitoringDaemon
from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.policies.surfaces import Policy, TickHorizon
from repro.sim.process import SimProcess, WorkloadClass
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload
from repro.workloads.suites import get_benchmark

from tests.replay_oracle import make_policy


class _CountingSystem(ServerSystem):
    """Counts the horizons whose arrays were built."""

    builds = 0

    def _horizon_arrays(self, *args):
        self.builds += 1
        return super()._horizon_arrays(*args)


class _Refusing(Policy):
    """Ticks every second and refuses every offer unread."""

    monitor_period_s = 1.0

    def __init__(self):
        self.offers = 0

    def quiet_ticks(self, horizon):
        self.offers += 1
        return 0


def _workload(spec):
    jobs = (
        JobSpec(0, "CG", 2, 0.0),
        JobSpec(1, "EP", 1, 4.5),
        JobSpec(2, "mcf", 1, 30.0),
    )
    return Workload(
        jobs=jobs, duration_s=120.0, max_cores=spec.n_cores, seed=0
    )


def _unbuildable():
    raise AssertionError("a refused offer built its arrays")


@pytest.mark.parametrize("platform", ["xgene2", "xgene3-xl"])
def test_refused_offers_build_nothing(platform):
    spec = get_spec(platform)
    policy = _Refusing()
    system = _CountingSystem(Chip(spec), _workload(spec), policy)
    system.run()
    assert policy.offers > 0
    assert system.builds == 0


@pytest.mark.parametrize("platform", ["xgene2", "xgene3-xl"])
def test_the_daemon_builds_only_what_it_reads(platform):
    spec = get_spec(platform)
    policy = make_policy("daemon", platform)
    offers = []
    quiet_ticks = policy.quiet_ticks

    def counted(horizon):
        offers.append(horizon)
        return quiet_ticks(horizon)

    policy.quiet_ticks = counted
    system = _CountingSystem(Chip(spec), _workload(spec), policy)
    system.run()
    # Every admission's first offers meet an unsampled or unclassified
    # process and are refused unbuilt.
    assert 0 < system.builds < len(offers)


class TestMonitorRefusesUnread:
    def _process(self, pid, observed):
        process = SimProcess(
            pid=pid,
            profile=get_benchmark("CG"),
            nthreads=1,
            arrival_s=0.0,
        )
        process.observed_class = observed
        return process

    def test_no_snapshot_yet(self):
        monitor = MonitoringDaemon()
        horizon = TickHorizon(
            (self._process(0, WorkloadClass.CPU_INTENSIVE),), _unbuildable
        )
        assert monitor.quiet_ticks(horizon) == 0

    def test_unclassified(self):
        monitor = MonitoringDaemon()
        process = self._process(0, WorkloadClass.UNKNOWN)
        monitor._snapshots[process.pid] = (0.0, 0.0)
        assert monitor.quiet_ticks(TickHorizon((process,), _unbuildable)) == 0

    def test_inexact_reader(self):
        monitor = MonitoringDaemon(reader=lambda process: (0.0, 0.0))
        horizon = TickHorizon((), _unbuildable)
        assert monitor.quiet_ticks(horizon) == 0
