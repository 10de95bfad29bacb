"""repro — reproduction of "Adaptive Voltage/Frequency Scaling and Core
Allocation for Balanced Energy and Performance on Multicore CPUs"
(Papadimitriou, Chatzidimitriou, Gizopoulos — HPCA 2019).

The package models the paper's two ARMv8 micro-servers (X-Gene 2 and
X-Gene 3) in software — chip, power, safe-Vmin/droop behaviour,
benchmark performance and a Linux-like server — and runs the paper's
actual contribution on top: an online monitoring daemon that classifies
processes by their L3-cache access rate and steers core allocation,
per-PMD frequency and the shared rail voltage for energy efficiency.

Quickstart::

    from repro import run_evaluation

    result = run_evaluation("xgene3", duration_s=600)
    for row in result.rows():
        print(row.config, f"{row.energy_savings_pct:.1f}%")

See :mod:`repro.experiments` for one regenerator per paper table/figure.
"""

from .allocation import Allocation, cores_for, utilized_pmd_count

# repro.vmin before everything that reaches repro.kernels: the Vmin
# campaign and the batched kernels import each other's modules, and only
# initializing repro.vmin first resolves them.
from .vmin import FaultModel, VminCampaign, VminModel
from .core import (
    L3RateClassifier,
    MonitoringDaemon,
    PlacementEngine,
    VminPolicyTable,
    run_configuration,
    run_evaluation,
)
from .policies import (
    Action,
    BaselinePolicy,
    Observation,
    OnlineMonitoringDaemon,
    Policy,
    SafeVminPolicy,
    resolve_policy,
)
from .errors import (
    ConfigurationError,
    PlacementError,
    ReproError,
)
from .perf import execution_state
from .platform import Chip, ChipSpec, get_spec, xgene2_spec, xgene3_spec
from .power import EnergyMeter, PowerModel, ed2p
from .sim import ServerSystem, SystemResult
from .workloads import (
    BenchmarkProfile,
    ServerWorkloadGenerator,
    Workload,
    characterization_set,
    get_benchmark,
)

__version__ = "1.0.0"

__all__ = [
    "Action",
    "Allocation",
    "BaselinePolicy",
    "BenchmarkProfile",
    "Chip",
    "ChipSpec",
    "ConfigurationError",
    "EnergyMeter",
    "FaultModel",
    "L3RateClassifier",
    "MonitoringDaemon",
    "Observation",
    "OnlineMonitoringDaemon",
    "PlacementEngine",
    "PlacementError",
    "Policy",
    "PowerModel",
    "ReproError",
    "SafeVminPolicy",
    "ServerSystem",
    "ServerWorkloadGenerator",
    "SystemResult",
    "VminCampaign",
    "VminModel",
    "VminPolicyTable",
    "Workload",
    "characterization_set",
    "cores_for",
    "ed2p",
    "execution_state",
    "get_benchmark",
    "get_spec",
    "resolve_policy",
    "run_configuration",
    "run_evaluation",
    "utilized_pmd_count",
    "xgene2_spec",
    "xgene3_spec",
]
