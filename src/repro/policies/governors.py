"""Frequency-governor policies: the stock machine behaviours.

The evaluation's Baseline configuration (Section VI.B) runs the server
exactly as shipped: the default spreading scheduler places threads, the
Linux ``ondemand`` governor drives the clocks and the rail stays at
nominal voltage. These policies reproduce that behaviour on the
:class:`~repro.policies.surfaces.Observation`/``Action`` surfaces:

* :class:`BaselinePolicy` — ondemand clocks + nominal rail (the paper's
  Baseline row; registry key ``baseline-ondemand``);
* :class:`OndemandPolicy` — clocks only, rail untouched (the base
  behaviour of policies that control the voltage separately);
* :class:`PerformancePolicy` / :class:`PowersavePolicy` — clocks pinned
  to fmax / fmin.

The ondemand model matches the paper's observed platform behaviour: the
X-Gene firmware exposes one clock per PMD, and the stock governor runs
busy clocks at fmax and parks fully idle domains at fmin. ``scope``
selects between the chip-wide variant ("any core busy => every PMD at
fmax", what the measured machines did) and the finer per-PMD variant
(used by the governor-scope ablation).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ConfigurationError
from .surfaces import Action, Observation, Policy, PolicyEvent

#: Governor scopes: chip-wide (the measured platform behaviour) or
#: per-PMD (the finer variant of the governor-scope ablation).
GOVERNOR_SCOPES = ("chip", "pmd")


def _check_scope(scope: str) -> str:
    if scope not in GOVERNOR_SCOPES:
        raise ConfigurationError(
            f"unknown governor scope {scope!r}; known: {GOVERNOR_SCOPES}"
        )
    return scope


def ondemand_targets(obs: Observation, scope: str = "chip") -> Dict[int, int]:
    """Per-PMD ondemand frequency set-points for the current occupancy.

    ``chip`` scope raises every clock while any core is busy; ``pmd``
    scope raises exactly the domains that have a running thread.
    """
    spec = obs.spec
    if scope == "chip":
        busy = bool(obs.active_cores)
        target = spec.fmax_hz if busy else spec.fmin_hz
        return {pmd: target for pmd in range(spec.n_pmds)}
    return {
        pmd: spec.fmin_hz if obs.pmd_is_idle(pmd) else spec.fmax_hz
        for pmd in range(spec.n_pmds)
    }


class OndemandPolicy(Policy):
    """Ondemand clocks only: busy domains at fmax, idle ones at fmin."""

    def __init__(self, scope: str = "chip"):
        self.scope = _check_scope(scope)

    def decide(self, obs: Observation) -> Optional[Action]:
        """Re-evaluate the clocks on every occupancy change."""
        event = obs.event
        if event is PolicyEvent.ADMIT or event is PolicyEvent.TICK:
            return None
        return Action(pmd_freqs_hz=ondemand_targets(obs, self.scope))


class BaselinePolicy(Policy):
    """Default Linux settings: ondemand governor, nominal voltage."""

    def __init__(self, scope: str = "chip"):
        self.scope = _check_scope(scope)

    def decide(self, obs: Observation) -> Optional[Action]:
        """Park or raise the clocks; pin the rail at nominal on start."""
        event = obs.event
        if event is PolicyEvent.ADMIT or event is PolicyEvent.TICK:
            return None
        freqs = ondemand_targets(obs, self.scope)
        if event is PolicyEvent.START:
            return Action(
                pmd_freqs_hz=freqs,
                voltage_mv=obs.spec.nominal_voltage_mv,
            )
        return Action(pmd_freqs_hz=freqs)


class PerformancePolicy(Policy):
    """Every clock pinned at fmax regardless of occupancy."""

    def decide(self, obs: Observation) -> Optional[Action]:
        """Pin all clocks once occupancy changes."""
        event = obs.event
        if event is PolicyEvent.ADMIT or event is PolicyEvent.TICK:
            return None
        spec = obs.spec
        return Action(
            pmd_freqs_hz={
                pmd: spec.fmax_hz for pmd in range(spec.n_pmds)
            }
        )


class PowersavePolicy(Policy):
    """Every clock pinned at fmin regardless of occupancy."""

    def decide(self, obs: Observation) -> Optional[Action]:
        """Pin all clocks once occupancy changes."""
        event = obs.event
        if event is PolicyEvent.ADMIT or event is PolicyEvent.TICK:
            return None
        spec = obs.spec
        return Action(
            pmd_freqs_hz={
                pmd: spec.fmin_hz for pmd in range(spec.n_pmds)
            }
        )
