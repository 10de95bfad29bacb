"""The policy registry: stable keys -> control-plane bundles.

The experiments, the CLI and the orchestrator never construct policies
by hand; they resolve them here by key, exactly the way
:mod:`repro.platform.registry` resolves chips. Each
:class:`PolicyDescriptor` carries:

* ``key`` — the stable resolution name (``baseline-ondemand``,
  ``safe-vmin``, ``daemon``, ...);
* ``summary`` — one line for ``repro policy list``;
* ``factory`` — builds the policy for a chip (sharing a caller-provided
  :class:`~repro.core.policy.VminPolicyTable` so one characterization
  sweep serves a whole evaluation);
* ``rail`` — the idle-machine voltage mode (``"nominal"``/``"safe"``)
  the policy corresponds to, consumed by the analytic
  :class:`~repro.experiments.energy_runner.EnergyRunner` measurements
  which have no event loop to run a live policy in.

The paper's four evaluation configurations keep their historical names
(``baseline``/``safe_vmin``/``placement``/``optimal``) as aliases
(:data:`CONFIG_POLICY_KEYS`) that every lookup here accepts; everything
else — including the ED²P-derived governor and the power cappers —
exists only under its registry key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.policy import VminPolicyTable
from ..errors import ConfigurationError
from ..platform.specs import ChipSpec
from .daemon import OnlineMonitoringDaemon
from .ed2p import Ed2pPolicy
from .governors import (
    BaselinePolicy,
    OndemandPolicy,
    PerformancePolicy,
    PowersavePolicy,
)
from .powercap import CappedDaemonPolicy, PowerCapPolicy
from .safevmin import SafeVminPolicy
from .surfaces import Policy

#: Default power budget of the capping policies, as a fraction of TDP.
DEFAULT_CAP_TDP_FRACTION = 0.8

#: Factory signature: (spec, shared safe-Vmin table or None) -> policy.
PolicyFactory = Callable[[ChipSpec, Optional[VminPolicyTable]], Policy]


@dataclass(frozen=True)
class PolicyDescriptor:
    """One resolvable control-plane bundle."""

    key: str
    summary: str
    factory: PolicyFactory
    #: Idle-machine voltage mode for analytic measurements:
    #: ``"nominal"``, ``"safe"``, or ``None`` when the policy has no
    #: meaningful idle-machine equivalent.
    rail: Optional[str] = None


def _cap_w(spec: ChipSpec) -> float:
    return DEFAULT_CAP_TDP_FRACTION * spec.tdp_w


_DESCRIPTORS: Tuple[PolicyDescriptor, ...] = (
    PolicyDescriptor(
        key="none",
        summary="no control: clocks and rail stay wherever they are",
        factory=lambda spec, table: Policy(),
        rail=None,
    ),
    PolicyDescriptor(
        key="baseline-ondemand",
        summary="stock machine: ondemand governor, nominal voltage "
        "(the paper's Baseline)",
        factory=lambda spec, table: BaselinePolicy(),
        rail="nominal",
    ),
    PolicyDescriptor(
        key="ondemand",
        summary="ondemand clocks only; the rail is left untouched",
        factory=lambda spec, table: OndemandPolicy(),
        rail="nominal",
    ),
    PolicyDescriptor(
        key="performance",
        summary="all clocks pinned at fmax",
        factory=lambda spec, table: PerformancePolicy(),
        rail="nominal",
    ),
    PolicyDescriptor(
        key="powersave",
        summary="all clocks pinned at fmin",
        factory=lambda spec, table: PowersavePolicy(),
        rail="nominal",
    ),
    PolicyDescriptor(
        key="safe-vmin",
        summary="ondemand clocks, rail settled at the measured safe Vmin "
        "(the paper's Safe Vmin)",
        factory=lambda spec, table: SafeVminPolicy(spec, policy=table),
        rail="safe",
    ),
    PolicyDescriptor(
        key="daemon",
        summary="online monitoring daemon: placement + clocks + rail "
        "(the paper's Optimal)",
        factory=lambda spec, table: OnlineMonitoringDaemon(
            spec, control_voltage=True, policy=table
        ),
        rail="safe",
    ),
    PolicyDescriptor(
        key="daemon-placement",
        summary="daemon placement and clocks at nominal voltage "
        "(the paper's Placement)",
        factory=lambda spec, table: OnlineMonitoringDaemon(
            spec, control_voltage=False, policy=table
        ),
        rail="nominal",
    ),
    PolicyDescriptor(
        key="powercap",
        summary="RAPL-style DVFS power capping on the stock machine "
        "(default budget: 80% of TDP)",
        factory=lambda spec, table: PowerCapPolicy(spec, cap_w=_cap_w(spec)),
        rail="nominal",
    ),
    PolicyDescriptor(
        key="daemon-powercap",
        summary="the Optimal daemon under a power budget "
        "(default budget: 80% of TDP)",
        factory=lambda spec, table: CappedDaemonPolicy(
            spec, cap_w=_cap_w(spec), policy=table
        ),
        rail="safe",
    ),
    PolicyDescriptor(
        key="ed2p",
        summary="daemon steering ED2P-argmin per-class clocks derived "
        "from the Fig. 12 sweep",
        factory=lambda spec, table: Ed2pPolicy(spec, policy=table),
        rail="safe",
    ),
)

#: Paper configuration name -> policy registry key, in the paper's table
#: order (Section VI.B).
CONFIG_POLICY_KEYS: Dict[str, str] = {
    "baseline": "baseline-ondemand",
    "safe_vmin": "safe-vmin",
    "placement": "daemon-placement",
    "optimal": "daemon",
}

_BY_KEY: Dict[str, PolicyDescriptor] = {d.key: d for d in _DESCRIPTORS}
#: Every resolvable name: the registry keys plus the paper aliases.
_BY_NAME: Dict[str, PolicyDescriptor] = {
    **_BY_KEY,
    **{alias: _BY_KEY[key] for alias, key in CONFIG_POLICY_KEYS.items()},
}


def policy_keys() -> Tuple[str, ...]:
    """All registered policy keys, in registry order."""
    return tuple(d.key for d in _DESCRIPTORS)


def policy_names() -> Tuple[str, ...]:
    """Every name the lookups accept: the keys, then the paper aliases."""
    return tuple(_BY_NAME)


def get_policy_descriptor(key: str) -> PolicyDescriptor:
    """Descriptor for a registry key or paper alias; raises on unknowns."""
    try:
        return _BY_NAME[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {key!r}; known: {', '.join(policy_keys())}"
        ) from None


def resolve_policy(
    key: str,
    spec: ChipSpec,
    table: Optional[VminPolicyTable] = None,
) -> Policy:
    """Build the policy registered under ``key`` for one chip.

    ``table`` optionally shares a prebuilt safe-Vmin table across
    several resolutions (one characterization sweep per evaluation);
    factories that do not consume a table ignore it.
    """
    descriptor = get_policy_descriptor(key)
    policy = descriptor.factory(spec, table)
    policy.key = descriptor.key
    return policy


def rail_mode(key: str) -> str:
    """Idle-machine voltage mode of a policy key, for analytic sweeps.

    Raises when the policy has no idle-machine equivalent (``none``).
    """
    descriptor = get_policy_descriptor(key)
    if descriptor.rail is None:
        raise ConfigurationError(
            f"policy {key!r} has no idle-machine voltage mode"
        )
    return descriptor.rail


def describe_policy(key: str, spec: ChipSpec) -> List[Tuple[str, str]]:
    """(field, value) rows for ``repro policy show``."""
    descriptor = get_policy_descriptor(key)
    policy = resolve_policy(key, spec)
    rows = [
        ("key", descriptor.key),
        ("summary", descriptor.summary),
        ("class", type(policy).__name__),
        ("rail mode", descriptor.rail or "-"),
        (
            "monitor period",
            f"{policy.monitor_period_s} s"
            if policy.monitor_period_s is not None
            else "-",
        ),
    ]
    engine = getattr(policy, "engine", None)
    if engine is not None:
        from ..units import fmt_freq

        rows.append(("cpu clock", fmt_freq(engine.cpu_freq_hz)))
        rows.append(("mem clock", fmt_freq(engine.mem_freq_hz)))
    return rows
