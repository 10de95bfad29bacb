"""The paper's core machinery: monitoring, placement and the Vmin policy.

Classification (monitoring), placement planning, the safe-Vmin policy
table and the four evaluation configurations (Baseline / Safe-Vmin /
Placement / Optimal). The control policies themselves — the daemon, the
Safe-Vmin trim, the governors and power cappers — live in
:mod:`repro.policies`.
"""

from .classifier import (
    DEFAULT_THRESHOLD,
    ClassificationSample,
    L3RateClassifier,
)
from .configurations import (
    CONFIG_NAMES,
    ConfigurationRow,
    EvaluationResult,
    run_configuration,
    run_evaluation,
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
