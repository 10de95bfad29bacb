"""DVFS-based power-capping policies (Section I's power-management context).

The paper motivates its work with the rise of power capping: "the ability
to cap peak power consumption has recently gained strong interest ...
power capping is realized through power-performance knobs such as DVFS,
pipeline throttling or memory throttling" (citing RAPL and
warehouse-scale provisioning). These policies provide that substrate: a
RAPL-style outer loop that watches the platform's energy meter and
throttles the clocks to keep window-average power under a budget.

Two variants:

* :class:`PowerCapPolicy` — capping on an otherwise stock machine
  (ondemand base behaviour, nominal voltage);
* :class:`CappedDaemonPolicy` — the paper's Optimal daemon with a power
  cap layered on top: the daemon picks placement/V/F, the capper clamps
  a maximum frequency that the placement engine then respects.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigurationError
from ..core.placement import PlacementEngine
from ..core.policy import VminPolicyTable
from ..platform.specs import ChipSpec
from .daemon import OnlineMonitoringDaemon
from .governors import ondemand_targets
from .surfaces import Action, Observation, Policy, PolicyEvent


class _WindowPowerMeter:
    """Average power over the last control window, read like RAPL."""

    def __init__(self) -> None:
        self._last_energy_j = 0.0
        self._last_time_s = 0.0

    def read(self, obs: Observation) -> Optional[float]:
        """Average power since the previous read; None on a zero window."""
        energy = obs.energy_j
        now = obs.now
        dt = now - self._last_time_s
        if dt <= 0:
            return None
        power = (energy - self._last_energy_j) / dt
        self._last_energy_j = energy
        self._last_time_s = now
        return power


class PowerCapPolicy(Policy):
    """Keep average power under a budget by clamping the clock ceiling.

    Every control window the measured window-average power is compared
    against the cap: above it, the ceiling steps down one frequency step
    (and every busy PMD is clamped); comfortably below it, the ceiling
    steps back up. This is the classic RAPL-style outer loop realized
    purely through DVFS.
    """

    #: The window meter reads :attr:`Observation.energy_j`.
    reads_lane_state = True

    def __init__(
        self,
        spec: ChipSpec,
        cap_w: float,
        window_s: float = 0.5,
        release_margin: float = 0.9,
    ):
        if cap_w <= 0:
            raise ConfigurationError("power cap must be positive")
        if not 0.0 < release_margin < 1.0:
            raise ConfigurationError("release margin must be in (0, 1)")
        self.spec = spec
        self.cap_w = cap_w
        self.release_margin = release_margin
        self.monitor_period_s = window_s
        self._meter = _WindowPowerMeter()
        self._steps: List[int] = list(spec.frequency_steps())
        self._ceiling_index = len(self._steps) - 1
        self.throttle_events = 0
        self.release_events = 0

    @property
    def ceiling_hz(self) -> int:
        """Current maximum clock the capper allows."""
        return self._steps[self._ceiling_index]

    def decide(self, obs: Observation) -> Optional[Action]:
        """Ondemand base behaviour, clamped; RAPL step on every tick."""
        event = obs.event
        if event is PolicyEvent.ADMIT:
            return None
        if event is PolicyEvent.TICK:
            power = self._meter.read(obs)
            if power is None:
                return None
            if power > self.cap_w and self._ceiling_index > 0:
                self._ceiling_index -= 1
                self.throttle_events += 1
            elif (
                power < self.cap_w * self.release_margin
                and self._ceiling_index < len(self._steps) - 1
            ):
                self._ceiling_index += 1
                self.release_events += 1
            else:
                return None
            return self._clamp_action(obs)
        # START / STARTED / FINISHED: re-run the base governor, then
        # clamp everything above the ceiling.
        ceiling = self.ceiling_hz
        freqs = {
            pmd: min(freq, ceiling)
            for pmd, freq in ondemand_targets(obs, "chip").items()
        }
        return Action(pmd_freqs_hz=freqs)

    def _clamp_action(self, obs: Observation) -> Action:
        """Clamp only the PMDs currently clocked above the ceiling."""
        ceiling = self.ceiling_hz
        freqs = {
            pmd: ceiling
            for pmd in range(self.spec.n_pmds)
            if obs.pmd_frequency_hz(pmd) > ceiling
        }
        return Action(pmd_freqs_hz=freqs)


class CappedDaemonPolicy(OnlineMonitoringDaemon):
    """The paper's Optimal daemon under a power budget.

    The capper's ceiling becomes the placement engine's CPU clock, so
    CPU-intensive PMDs run as fast as the budget allows while the
    memory-intensive PMDs keep their (already lower) energy clock, and
    the rail keeps tracking the safe Vmin of whatever is configured.
    """

    #: The window meter reads :attr:`Observation.energy_j`.
    reads_lane_state = True

    #: Every tick also steps the capper, so no tick is quiet.
    quiet_ticks = Policy.quiet_ticks

    def __init__(
        self,
        spec: ChipSpec,
        cap_w: float,
        policy: Optional[VminPolicyTable] = None,
        window_s: float = 0.5,
        release_margin: float = 0.9,
    ):
        super().__init__(spec, control_voltage=True, policy=policy,
                         monitor_period_s=window_s)
        if cap_w <= 0:
            raise ConfigurationError("power cap must be positive")
        self.cap_w = cap_w
        self.release_margin = release_margin
        self._meter = _WindowPowerMeter()
        self._steps: List[int] = [
            f for f in spec.frequency_steps() if f >= self.engine.mem_freq_hz
        ]
        self._ceiling_index = len(self._steps) - 1
        self.throttle_events = 0
        self.release_events = 0

    @property
    def ceiling_hz(self) -> int:
        """Current maximum clock the capper allows."""
        return self._steps[self._ceiling_index]

    def decide(self, obs: Observation) -> Optional[Action]:
        """Daemon decision flow plus the capping control step on ticks."""
        action = super().decide(obs)
        if obs.event is not PolicyEvent.TICK:
            return action
        power = self._meter.read(obs)
        if power is None:
            return action
        changed = False
        if power > self.cap_w and self._ceiling_index > 0:
            self._ceiling_index -= 1
            self.throttle_events += 1
            changed = True
        elif (
            power < self.cap_w * self.release_margin
            and self._ceiling_index < len(self._steps) - 1
        ):
            self._ceiling_index += 1
            self.release_events += 1
            changed = True
        if not changed:
            return action
        # The new ceiling supersedes whatever the monitor pass planned:
        # rebuild the engine around it and retune clocks and rail.
        self._rebuild_engine()
        plan = self.engine.retune(obs.running_processes())
        return self.engine.action_for(plan, obs.chip_state())

    def _rebuild_engine(self) -> None:
        self.engine = PlacementEngine(
            self.spec,
            policy=self.vmin_table,
            control_voltage=self.control_voltage,
            cpu_freq_hz=self.ceiling_hz,
            mem_freq_hz=min(self.engine.mem_freq_hz, self.ceiling_hz),
        )
