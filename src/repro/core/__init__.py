"""The paper's core machinery: monitoring, placement and the Vmin policy.

Classification (monitoring), placement planning, the safe-Vmin policy
table and the four evaluation configurations (Baseline / Safe-Vmin /
Placement / Optimal). The control policies themselves — the daemon, the
Safe-Vmin trim, the governors and power cappers — live in
:mod:`repro.policies`.

The policies are built on the monitor, the placement engine and the
table, and the configurations (:mod:`repro.core.configurations`) run
the policies. So the configuration names are exported lazily (PEP 562):
importing this package, as every policy module does, never imports a
policy.
"""

import importlib

from .classifier import (
    DEFAULT_THRESHOLD,
    ClassificationSample,
    L3RateClassifier,
)
from .monitoring import (
    MIN_WINDOW_CYCLES,
    ClassChange,
    MonitoringDaemon,
    kernel_module_reader,
)
from .placement import (
    PlacementEngine,
    PlacementPlan,
    default_memory_frequency_hz,
)
from .policy import DEFAULT_GUARD_MV, PolicyEntry, VminPolicyTable

__all__ = [
    "CONFIG_NAMES",
    "ClassChange",
    "ClassificationSample",
    "ConfigurationRow",
    "DEFAULT_GUARD_MV",
    "DEFAULT_THRESHOLD",
    "EvaluationResult",
    "L3RateClassifier",
    "MIN_WINDOW_CYCLES",
    "MonitoringDaemon",
    "PlacementEngine",
    "PlacementPlan",
    "PolicyEntry",
    "VminPolicyTable",
    "default_memory_frequency_hz",
    "kernel_module_reader",
    "run_configuration",
    "run_evaluation",
]

#: The configuration names, defined in :mod:`repro.core.configurations`.
_CONFIGURATION_EXPORTS = frozenset(
    {
        "CONFIG_NAMES",
        "ConfigurationRow",
        "EvaluationResult",
        "run_configuration",
        "run_evaluation",
    }
)


def __getattr__(name: str):
    """Import the configurations module on first use of one of its names."""
    if name in _CONFIGURATION_EXPORTS:
        module = importlib.import_module(f"{__name__}.configurations")
        return getattr(module, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
