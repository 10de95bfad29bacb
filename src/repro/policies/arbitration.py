"""Policy composition: priority stacks with a mandatory safe-Vmin clamp.

A :class:`PolicyStack` runs several policies against the same
observation and arbitrates their actions into one:

* **priority** — earlier policies win. Placement (``migrations``,
  ``admit_cores``) and the settle voltage are taken from the
  highest-priority policy that requested them; per-PMD frequencies
  merge field-wise with the highest-priority writer winning each PMD;
  fail-safe raises combine as the *maximum* (a raise can never undercut
  another) and power caps as the *minimum* (the tightest budget binds).
  Discarded lower-priority requests are counted as arbitration
  overrides.
* **the clamp** — after arbitration the stack computes the machine
  state the merged action would produce (post-migration utilized PMDs,
  post-set-point clocks) and looks up the measured safe Vmin for it in
  the :class:`~repro.core.policy.VminPolicyTable`. If the action would
  leave the rail below that level, the stack lifts both the fail-safe
  raise and the settle voltage to it. The clamp is structural: it is
  built into every stack and applies *after* arbitration, so no
  composed policy — whatever its priority — can drive the rail below
  the table. Clamp interventions are counted and exported as
  ``policy.stack.clamps``.

The three paper configurations are bare (un-stacked) policies, so their
bit-for-bit reproduction does not depend on this layer; stacks are the
composition surface for everything new (capped daemons, experimental
governors, sweep harnesses).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..core.policy import VminPolicyTable
from ..errors import ConfigurationError
from ..platform.specs import ChipSpec
from ..telemetry import names as metric_names
from .surfaces import Action, Observation, Policy, PolicyEvent


class PolicyStack(Policy):
    """Priority-ordered composition of policies under the safe-Vmin clamp."""

    def __init__(
        self,
        spec: ChipSpec,
        policies: Sequence[Policy],
        table: Optional[VminPolicyTable] = None,
    ):
        if not policies:
            raise ConfigurationError("a policy stack needs >= 1 policy")
        self.spec = spec
        self.policies: Tuple[Policy, ...] = tuple(policies)
        #: The clamp's safe-Vmin table; always present (mandatory clamp).
        self.table = table or VminPolicyTable.from_characterization(spec)
        periods = [
            p.monitor_period_s
            for p in self.policies
            if p.monitor_period_s is not None
        ]
        #: Ticks fire at the fastest member cadence; members with slower
        #: windows see every tick and gate on their own meters/windows.
        self.monitor_period_s = min(periods) if periods else None
        #: The stack reads whatever lane state any member reads.
        self.reads_lane_state = any(p.reads_lane_state for p in self.policies)
        #: Control events decided (one per dispatched event).
        self.decisions = 0
        #: Rail lifts forced by the safe-Vmin clamp.
        self.clamps = 0
        #: Lower-priority requests discarded during arbitration.
        self.overrides = 0
        self._flushed = {"decisions": 0, "clamps": 0, "overrides": 0}

    # -- dispatch -----------------------------------------------------------

    def decide(self, obs: Observation) -> Optional[Action]:
        """Consult every member, arbitrate, clamp."""
        self.decisions += 1
        proposals = [
            action
            for action in (p.decide(obs) for p in self.policies)
            if action is not None
        ]
        merged = self._merge(proposals) if proposals else Action()
        clamped = self._clamp(obs, merged)
        if clamped.is_noop():
            return None
        return clamped

    def on_applied(self, obs: Observation, action: Optional[Action]) -> None:
        """Fan the post-actuation hook out to members that use it."""
        for policy in self.policies:
            if type(policy).on_applied is not Policy.on_applied:
                policy.on_applied(obs, action)

    # -- arbitration --------------------------------------------------------

    def _merge(self, proposals: List[Action]) -> Action:
        merged = Action()
        freq_writer: Dict[int, int] = {}
        for action in proposals:
            if action.raise_voltage_mv is not None:
                # Raises never undercut each other: take the maximum.
                if (
                    merged.raise_voltage_mv is None
                    or action.raise_voltage_mv > merged.raise_voltage_mv
                ):
                    merged.raise_voltage_mv = action.raise_voltage_mv
            if action.migrations:
                if merged.migrations is None:
                    merged.migrations = dict(action.migrations)
                else:
                    self.overrides += 1
            if action.pmd_freqs_hz:
                for pmd, freq in action.pmd_freqs_hz.items():
                    if pmd not in freq_writer:
                        freq_writer[pmd] = freq
                    elif freq_writer[pmd] != freq:
                        self.overrides += 1
            if action.voltage_mv is not None:
                if merged.voltage_mv is None:
                    merged.voltage_mv = action.voltage_mv
                else:
                    self.overrides += 1
            if action.admit_cores is not None:
                if merged.admit_cores is None:
                    merged.admit_cores = action.admit_cores
                else:
                    self.overrides += 1
            if action.power_cap_w is not None:
                # The tightest budget binds.
                if (
                    merged.power_cap_w is None
                    or action.power_cap_w < merged.power_cap_w
                ):
                    merged.power_cap_w = action.power_cap_w
        if freq_writer:
            merged.pmd_freqs_hz = freq_writer
        return merged

    # -- the mandatory clamp ------------------------------------------------

    def _post_state(
        self, obs: Observation, action: Action
    ) -> Tuple[Set[int], int]:
        """(utilized PMDs, top active clock) after the action lands."""
        spec = self.spec
        core_sets: List[Tuple[int, ...]] = []
        migrations = action.migrations or {}
        for process in obs.running_processes():
            target = migrations.get(process.pid)
            core_sets.append(
                tuple(target) if target is not None else tuple(process.cores)
            )
        if obs.event is PolicyEvent.ADMIT and action.admit_cores:
            core_sets.append(tuple(action.admit_cores))
        pmds: Set[int] = set()
        for cores in core_sets:
            for core in cores:
                pmds.add(spec.pmd_of_core(core))
        freqs = action.pmd_freqs_hz or {}
        max_freq = spec.fmin_hz
        for pmd in pmds:
            freq = freqs.get(pmd)
            if freq is None:
                freq = obs.pmd_frequency_hz(pmd)
            else:
                freq = spec.nearest_frequency(freq)
            max_freq = max(max_freq, freq)
        return pmds, max_freq

    def _clamp(self, obs: Observation, action: Action) -> Action:
        pmds, max_freq = self._post_state(obs, action)
        required = self.table.safe_voltage_mv(max(1, len(pmds)), max_freq)
        if action.voltage_mv is not None:
            effective = action.voltage_mv
        else:
            current = obs.voltage_mv
            raise_mv = action.raise_voltage_mv
            effective = (
                raise_mv
                if raise_mv is not None and raise_mv > current
                else current
            )
        if effective >= required:
            return action
        # Lift the rail: the raise first (fail-safe order puts it before
        # any clock change), and the settle level when one was set or
        # the ambient rail itself is too low.
        self.clamps += 1
        if (
            action.raise_voltage_mv is None
            or action.raise_voltage_mv < required
        ):
            action.raise_voltage_mv = required
        if action.voltage_mv is not None and action.voltage_mv < required:
            action.voltage_mv = required
        return action

    # -- telemetry ----------------------------------------------------------

    def decision_counters(self) -> Dict[str, int]:
        """Decision/clamp/override counters for manifests and tooling."""
        return {
            metric_names.POLICY_DECISIONS: self.decisions,
            metric_names.POLICY_CLAMPS: self.clamps,
            metric_names.POLICY_OVERRIDES: self.overrides,
        }

    def flush_telemetry(self) -> None:
        """Publish counter deltas since the previous flush."""
        delta = self.decisions - self._flushed["decisions"]
        if delta:
            telemetry.inc(metric_names.POLICY_DECISIONS, delta)
            self._flushed["decisions"] = self.decisions
        delta = self.clamps - self._flushed["clamps"]
        if delta:
            telemetry.inc(metric_names.POLICY_CLAMPS, delta)
            self._flushed["clamps"] = self.clamps
        delta = self.overrides - self._flushed["overrides"]
        if delta:
            telemetry.inc(metric_names.POLICY_OVERRIDES, delta)
            self._flushed["overrides"] = self.overrides
