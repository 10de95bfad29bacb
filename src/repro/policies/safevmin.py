"""The Safe-Vmin policy: reduced voltage margins, stock everything else.

The paper's Safe Vmin configuration (Section VI.B) keeps the default
scheduler and the ondemand governor but drives the rail from the
measured policy table (:class:`~repro.core.policy.VminPolicyTable`)
with the fail-safe protocol of Fig. 13: before a process is placed the
rail is raised to the worst case the arrival could create, and after
every occupancy change it settles to the measured safe level of the
actual configuration.
"""

from __future__ import annotations

from typing import Optional

from ..core.policy import VminPolicyTable
from ..platform.specs import ChipSpec
from .governors import _check_scope, ondemand_targets
from .surfaces import Action, Observation, Policy, PolicyEvent


class SafeVminPolicy(Policy):
    """Ondemand clocks with the rail settled at the measured safe Vmin."""

    def __init__(
        self,
        spec: ChipSpec,
        policy: Optional[VminPolicyTable] = None,
        scope: str = "chip",
    ):
        self.spec = spec
        #: The measured Table II-style safe-Vmin table.
        self.vmin_table = policy or VminPolicyTable.from_characterization(
            spec
        )
        self.scope = _check_scope(scope)

    def decide(self, obs: Observation) -> Optional[Action]:
        """Raise before an arrival; re-govern and settle on changes."""
        event = obs.event
        if event is PolicyEvent.ADMIT:
            # Fail-safe: assume the arrival lands on all-new PMDs at
            # fmax (the worst droop class it could create).
            state = obs.chip_state()
            worst_pmds = min(
                self.spec.n_pmds,
                len(state.active_pmds) + obs.process.nthreads,
            )
            required = self.vmin_table.safe_voltage_mv(
                worst_pmds, self.spec.fmax_hz
            )
            return Action(raise_voltage_mv=required)
        if event is PolicyEvent.TICK:
            return None
        # START / STARTED / FINISHED: ondemand clocks, then settle the
        # rail at the measured level of the post-governor configuration.
        freqs = ondemand_targets(obs, self.scope)
        active = obs.utilized_pmds
        if active:
            max_freq = max(freqs[pmd] for pmd in active)
        else:
            max_freq = self.spec.fmin_hz
        settle = self.vmin_table.safe_voltage_mv(
            max(1, len(active)), max_freq
        )
        return Action(pmd_freqs_hz=freqs, voltage_mv=settle)
