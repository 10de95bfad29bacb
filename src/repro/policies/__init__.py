"""The unified control plane: typed policies over Observation/Action.

| Module | Contents |
|---|---|
| ``surfaces`` | :class:`Observation`, :class:`Action`, :class:`Policy`, :class:`PolicyEvent`, :class:`TickHorizon` |
| ``actuation`` | :func:`apply_action` — the one funnel, with the safe-Vmin clamp |
| ``governors`` | Baseline/ondemand/performance/powersave policies |
| ``safevmin`` | the paper's Safe-Vmin configuration |
| ``daemon`` | the online monitoring daemon (Placement/Optimal) |
| ``powercap`` | RAPL-style DVFS capping, standalone and on the daemon |
| ``ed2p`` | ED²P-argmin governor derived from the Fig. 12 sweep |
| ``registry`` | stable keys -> policy bundles (``repro policy list``) |
| ``cli`` | the ``repro policy`` subcommand family |

A policy observes the simulated server (PMU/L3C snapshot, droop
counters, occupancy, power, wall-clock tick) and requests an action
(voltage set-point, per-PMD frequency, placement); the
simulator dispatches ``Observation -> Action`` with no policy-specific
branches. See ``docs/POLICIES.md`` for the contracts and a
walkthrough. Submodules are imported **lazily** (PEP 562), which both
keeps CLI startup fast and lets :mod:`repro.sim.system` import the
surfaces without dragging the whole control plane (and its circular
references back into ``repro.core``) along.
"""

import importlib
from typing import Dict, Tuple

_SUBMODULES: Tuple[str, ...] = (
    "actuation",
    "cli",
    "daemon",
    "ed2p",
    "governors",
    "powercap",
    "registry",
    "safevmin",
    "surfaces",
)

#: Re-exported name -> defining submodule.
_EXPORTS: Dict[str, str] = {
    "Action": "surfaces",
    "Observation": "surfaces",
    "Policy": "surfaces",
    "PolicyEvent": "surfaces",
    "TickHorizon": "surfaces",
    "apply_action": "actuation",
    "BaselinePolicy": "governors",
    "OndemandPolicy": "governors",
    "PerformancePolicy": "governors",
    "PowersavePolicy": "governors",
    "SafeVminPolicy": "safevmin",
    "OnlineMonitoringDaemon": "daemon",
    "DEFAULT_MONITOR_PERIOD_S": "daemon",
    "PowerCapPolicy": "powercap",
    "CappedDaemonPolicy": "powercap",
    "Ed2pPolicy": "ed2p",
    "Ed2pClockPlan": "ed2p",
    "ed2p_clock_plan": "ed2p",
    "CONFIG_POLICY_KEYS": "registry",
    "PolicyDescriptor": "registry",
    "policy_keys": "registry",
    "policy_names": "registry",
    "get_policy_descriptor": "registry",
    "resolve_policy": "registry",
    "rail_mode": "registry",
}

__all__ = sorted(set(_SUBMODULES) | set(_EXPORTS))


def __getattr__(name: str):
    """Lazily import submodules and the public exports."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    submodule = _EXPORTS.get(name)
    if submodule is not None:
        module = importlib.import_module(f"{__name__}.{submodule}")
        return getattr(module, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def __dir__():
    return __all__
