"""The paper's online monitoring daemon as a policy (Section VI, Fig. 13).

The daemon couples the monitoring half (periodic PMU classification,
:mod:`repro.core.monitoring`) with the placement half (clustering /
spreading, per-PMD clocks and the safe-Vmin rail,
:mod:`repro.core.placement`) into the closed control loop the paper
evaluates as the *Placement* (``control_voltage=False``) and *Optimal*
(``control_voltage=True``) configurations.

On the policy surfaces the loop reads:

* ``ADMIT`` — fail-safe raise for the arriving process (pre-invocation
  step of Fig. 13);
* ``START``/``STARTED``/``FINISHED`` — full replan of placement, clocks
  and rail;
* ``TICK`` — one monitor pass; a classification change triggers a
  retune (clocks and rail only; threads stay put). The ticks whose pass
  changes nothing are quiet (:meth:`OnlineMonitoringDaemon.quiet_ticks`),
  and the simulator advances runs of them without dispatching each.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import telemetry
from ..core.monitoring import MonitoringDaemon
from ..core.placement import PlacementEngine
from ..core.policy import VminPolicyTable
from ..platform.specs import ChipSpec
from ..telemetry import names as metric_names
from .surfaces import Action, Observation, Policy, PolicyEvent, TickHorizon

#: Monitor period of the paper's daemon (Section VI.A: a few hundred ms).
DEFAULT_MONITOR_PERIOD_S = 0.4


class OnlineMonitoringDaemon(Policy):
    """Joint voltage/frequency/core-allocation control loop."""

    def __init__(
        self,
        spec: ChipSpec,
        control_voltage: bool = True,
        policy: Optional[VminPolicyTable] = None,
        engine: Optional[PlacementEngine] = None,
        monitor: Optional[MonitoringDaemon] = None,
        classifier=None,
        reader=None,
        monitor_period_s: float = DEFAULT_MONITOR_PERIOD_S,
    ):
        self.spec = spec
        self.control_voltage = control_voltage
        #: The measured safe-Vmin table driving the rail.
        self.vmin_table = policy or VminPolicyTable.from_characterization(
            spec
        )
        self.engine = engine or PlacementEngine(
            spec, policy=self.vmin_table, control_voltage=control_voltage
        )
        self.monitor = monitor or MonitoringDaemon(
            classifier=classifier, reader=reader
        )
        self.monitor_period_s = monitor_period_s
        #: Full replans performed (arrivals, exits, start-up).
        self.replans = 0
        #: Clock/rail retunes triggered by classification changes.
        self.retunes = 0

    def decide(self, obs: Observation) -> Optional[Action]:
        """One pass of the Fig. 13 decision flow."""
        event = obs.event
        if event is PolicyEvent.TICK:
            changes = self.monitor.sample(obs)
            if not changes:
                return None
            plan = self.engine.retune(obs.running_processes())
            self.retunes += 1
            telemetry.inc(metric_names.DAEMON_RETUNES)
            return self.engine.action_for(plan, obs.chip_state())
        if event is PolicyEvent.ADMIT:
            telemetry.inc(metric_names.DAEMON_PLACEMENTS)
            raise_mv = self.engine.arrival_raise_mv(
                obs.chip_state(), obs.process.nthreads
            )
            if raise_mv is None:
                return None
            return Action(raise_voltage_mv=raise_mv)
        if event is PolicyEvent.FINISHED:
            self.monitor.forget(obs.process)
            return self._replan(obs)
        # START / STARTED: (re)place everything that is running.
        return self._replan(obs)

    def quiet_ticks(self, horizon: TickHorizon) -> int:
        """The ticks whose monitor pass changes no class.

        A ``TICK`` without a class change requests nothing, so the
        monitor's quiet passes are the policy's quiet ticks.
        """
        return self.monitor.quiet_ticks(horizon)

    def decision_counters(self) -> Dict[str, int]:
        """Replan/retune counters for manifests and ``policy compare``."""
        return {
            metric_names.DAEMON_REPLANS: self.replans,
            metric_names.DAEMON_RETUNES: self.retunes,
        }

    def _replan(self, obs: Observation) -> Action:
        plan = self.engine.plan(obs.running_processes())
        self.replans += 1
        telemetry.inc(metric_names.DAEMON_REPLANS)
        return self.engine.action_for(plan, obs.chip_state())
