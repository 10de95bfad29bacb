"""What a policy reads through its :class:`Observation`.

Every accessor reads the live system when it is asked, so at each
control event the observation agrees with the machine it views.
"""

from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.policies.surfaces import Policy, PolicyEvent
from repro.sim.system import ServerSystem
from repro.workloads.generator import JobSpec, Workload


class _Reader(Policy):
    """Checks the live accessors against the system on every tick."""

    monitor_period_s = 1.0

    def __init__(self):
        self.ticks = 0
        self.queued = 0

    def decide(self, obs):
        if obs.event != PolicyEvent.TICK:
            return None
        system = obs.system
        self.ticks += 1
        assert obs.chip is system.chip
        assert obs.queue_depth == len(system.queue)
        self.queued = max(self.queued, obs.queue_depth)
        busy = system.chip.utilized_pmds
        for pmd in range(obs.spec.n_pmds):
            assert obs.pmd_is_idle(pmd) == (pmd not in busy)
        state = system.chip.state()
        for process in obs.running_processes():
            assert obs.process_frequency_hz(process) == min(
                state.frequency_of_core(core) for core in process.cores
            )
        return None


class TestLiveAccessors:
    def test_accessors_agree_with_the_system_every_tick(self):
        # Eight cores: the third four-thread job waits for one to finish.
        workload = Workload(
            jobs=(
                JobSpec(0, "mcf", 4, 0.0),
                JobSpec(1, "CG", 4, 2.0),
                JobSpec(2, "namd", 4, 4.0),
            ),
            duration_s=60.0,
            max_cores=8,
            seed=0,
        )
        policy = _Reader()
        ServerSystem(Chip(get_spec("xgene2")), workload, policy).run()
        assert policy.ticks >= 5
        assert policy.queued == 1
