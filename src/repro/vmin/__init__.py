"""Safe-Vmin substrate: ground truth, droop model, faults, campaigns.

This package is the simulated silicon's electrical behaviour: what the
paper *measured* on the real X-Gene 2/3 chips is encoded here as ground
truth (Sections III and IV), and the characterization campaigns re-derive
it exactly the way the authors did on hardware.
"""

from .cache import (
    CacheStats,
    VminCache,
    configure_default_cache,
    get_default_cache,
    make_key,
    model_fingerprint,
    set_default_cache,
    spec_fingerprint,
)
from .characterize import (
    CharacterizationPoint,
    SafeVminResult,
    UnsafeScanResult,
    VminCampaign,
    VoltageStepRecord,
)
from .droop import (
    DROOP_BINS_MV,
    DroopModel,
    droop_bin,
    droop_bin_index,
    droop_ladder,
)
from .faults import (
    FAULT_OUTCOMES,
    OUTCOME_CRASH,
    OUTCOME_HANG,
    OUTCOME_PASS,
    OUTCOME_SDC,
    OUTCOME_TIMEOUT,
    FaultModel,
)
from .prediction import (
    PredictionReport,
    TrainingPoint,
    VminPredictor,
)
from .model import VminBreakdown, VminModel, variation_attenuation
from .variation import CoreVariationMap, make_variation_map

__all__ = [
    "CacheStats",
    "CharacterizationPoint",
    "PredictionReport",
    "TrainingPoint",
    "VminPredictor",
    "CoreVariationMap",
    "DROOP_BINS_MV",
    "DroopModel",
    "FAULT_OUTCOMES",
    "FaultModel",
    "OUTCOME_CRASH",
    "OUTCOME_HANG",
    "OUTCOME_PASS",
    "OUTCOME_SDC",
    "OUTCOME_TIMEOUT",
    "SafeVminResult",
    "UnsafeScanResult",
    "VminBreakdown",
    "VminCache",
    "VminCampaign",
    "VminModel",
    "VoltageStepRecord",
    "configure_default_cache",
    "droop_bin",
    "droop_bin_index",
    "droop_ladder",
    "get_default_cache",
    "make_key",
    "make_variation_map",
    "model_fingerprint",
    "set_default_cache",
    "spec_fingerprint",
    "variation_attenuation",
]
