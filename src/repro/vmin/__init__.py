"""Safe-Vmin substrate: ground truth, droop model, faults, campaigns.

This package is the simulated silicon's electrical behaviour: what the
paper *measured* on the real X-Gene 2/3 chips is encoded here as ground
truth (Sections III and IV), and the characterization campaigns re-derive
it exactly the way the authors did on hardware.

The layers import one way: the models here, then the batched kernels of
:mod:`repro.kernels` (built on the models), then the campaigns of
:mod:`repro.vmin.characterize` (built on the kernels). So the campaign
names are exported lazily (PEP 562): importing this package, as every
kernel module does, never imports a kernel.
"""

import importlib

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

#: The campaign names, defined in :mod:`repro.vmin.characterize`.
_CAMPAIGN_EXPORTS = frozenset(
    {
        "CharacterizationPoint",
        "SafeVminResult",
        "UnsafeScanResult",
        "VminCampaign",
        "VoltageStepRecord",
    }
)


def __getattr__(name: str):
    """Import the campaign module on first use of one of its names."""
    if name in _CAMPAIGN_EXPORTS:
        module = importlib.import_module(f"{__name__}.characterize")
        return getattr(module, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
