"""What a policy reads through its :class:`Observation`."""

from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.policies.surfaces import Policy, PolicyEvent
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload


class _DroopReader(Policy):
    """Reads the droop counters on every tick and scribbles on them."""

    monitor_period_s = 1.0

    def __init__(self):
        self.reads = []

    def decide(self, obs):
        if obs.event == PolicyEvent.TICK:
            counts = obs.droop_events
            self.reads.append(dict(counts))
            pmu_before = dict(obs.chip.pmu.droop_events)
            for bin_mv in counts:
                counts[bin_mv] = -1.0
            counts[(0, 0)] = 1.0
            assert obs.chip.pmu.droop_events == pmu_before
        return None


class TestDroopEvents:
    def test_policy_reads_a_copy_of_the_droop_bins_every_tick(self):
        workload = Workload(
            jobs=(JobSpec(0, "mcf", 1, 0.0), JobSpec(1, "CG", 4, 2.0)),
            duration_s=60.0,
            max_cores=8,
            seed=0,
        )
        policy = _DroopReader()
        system = ServerSystem(Chip(get_spec("xgene2")), workload, policy)
        system.run()
        assert len(policy.reads) >= 5
        for counts in policy.reads:
            assert all(
                isinstance(bin_mv, tuple) and len(bin_mv) == 2
                for bin_mv in counts
            )
            assert all(isinstance(n, float) for n in counts.values())
        # Droops accumulate while anything runs: the bins fill up.
        assert sum(policy.reads[-1].values()) > 0
        assert policy.reads[-1] == system.chip.pmu.droop_events
