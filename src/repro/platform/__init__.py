"""Platform substrate: chip, specs, SLIMpro, CPPC and PMU models.

This package models the two micro-servers of the paper (X-Gene 2 and
X-Gene 3) at the level of detail the paper's daemon actually touches:
one shared voltage rail, per-PMD clocks with CPPC semantics, and the
PMU's voltage-droop counters.
"""

from .chip import Chip, ChipState
from .cppc import CppcController, FrequencyTransition
from .pmu import DROOP_BINS_MV, Pmu
from .registry import (
    CharacterizationGrid,
    DroopParams,
    FaultParams,
    PerfCalibration,
    PlatformModel,
    VariationParams,
    get_platform,
    load_platform_file,
    model_for_spec,
    platform_key_for_spec,
    platform_keys,
    register_model,
    try_get_platform,
    validate_model,
)
from .slimpro import SlimPro, VoltageTransition
from .thermal import (
    LEAKAGE_TEMP_COEFF_PER_C,
    VMIN_TEMP_SENSITIVITY_MV_PER_C,
    ThermalModel,
    ThermalParams,
)
from .specs import (
    CACHE_LINE_BYTES,
    CacheSpec,
    ChipSpec,
    FrequencyClass,
    get_spec,
    xgene2_spec,
    xgene3_spec,
)

__all__ = [
    "CACHE_LINE_BYTES",
    "CharacterizationGrid",
    "Chip",
    "ChipSpec",
    "ChipState",
    "CacheSpec",
    "CppcController",
    "DROOP_BINS_MV",
    "DroopParams",
    "FaultParams",
    "FrequencyClass",
    "FrequencyTransition",
    "LEAKAGE_TEMP_COEFF_PER_C",
    "PerfCalibration",
    "PlatformModel",
    "Pmu",
    "SlimPro",
    "ThermalModel",
    "ThermalParams",
    "VMIN_TEMP_SENSITIVITY_MV_PER_C",
    "VariationParams",
    "VoltageTransition",
    "get_platform",
    "get_spec",
    "load_platform_file",
    "model_for_spec",
    "platform_key_for_spec",
    "platform_keys",
    "register_model",
    "try_get_platform",
    "validate_model",
    "xgene2_spec",
    "xgene3_spec",
]
