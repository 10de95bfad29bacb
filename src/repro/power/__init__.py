"""Power substrate: chip power model, energy metering, E/D metrics."""

from .energy import (
    EnergyMeter,
    RunEnergy,
    ed2p,
    edp,
    penalty_percent,
    savings_percent,
)
from .model import PowerBreakdown, PowerModel, PowerParams

__all__ = [
    "EnergyMeter",
    "PowerBreakdown",
    "PowerModel",
    "PowerParams",
    "RunEnergy",
    "ed2p",
    "edp",
    "penalty_percent",
    "savings_percent",
]
