"""Experiment regenerators: one module per paper table and figure.

| Module | Paper artefact |
|---|---|
| ``table1`` | Table I — platform parameters |
| ``fig3_vmin_characterization`` | Fig. 3 — safe-Vmin campaign |
| ``fig4_core_variation`` | Fig. 4 — single/two-core regions |
| ``fig5_pfail`` | Fig. 5 — failure probability curves |
| ``fig6_droops`` | Fig. 6 — droop detections per bin |
| ``fig7_allocation_energy`` | Fig. 7 — clustered vs spreaded energy |
| ``fig8_contention`` | Fig. 8 — full-chip contention ratios |
| ``fig9_l3c_rates`` | Fig. 9 — L3C access rates + threshold |
| ``fig10_factors`` | Fig. 10 — Vmin factor decomposition |
| ``fig11_energy`` | Fig. 11 — energy across configurations |
| ``fig12_ed2p`` | Fig. 12 — ED2P across configurations |
| ``table2`` | Table II — droop classes and safe Vmin |
| ``fig13_flow`` | Fig. 13 — traced daemon decision flow |
| ``fig14_power_timeline`` | Fig. 14 — Baseline vs Optimal power |
| ``fig15_load_timeline`` | Fig. 15 — load and process classes |
| ``tables34`` | Tables III/IV — four-configuration evaluation |
| ``variation_study`` | extension: chip-to-chip variation & golden-die risk |
| ``thermal_study`` | extension: junction temperature, leakage, thermal guard |

The catalogue itself lives in :mod:`repro.experiments.registry` and the
parallel runner in :mod:`repro.experiments.orchestrator`. Submodules
are imported **lazily** (PEP 562): ``import repro.experiments`` pays
nothing until an experiment is actually touched, which keeps CLI
startup fast.
"""

import importlib
from typing import Tuple

_SUBMODULES: Tuple[str, ...] = (
    "energy_runner",
    "fig3_vmin_characterization",
    "fig4_core_variation",
    "fig5_pfail",
    "fig6_droops",
    "fig7_allocation_energy",
    "fig8_contention",
    "fig9_l3c_rates",
    "fig10_factors",
    "fig11_energy",
    "fig12_ed2p",
    "fig13_flow",
    "fig14_power_timeline",
    "fig15_load_timeline",
    "orchestrator",
    "registry",
    "report",
    "table1",
    "table2",
    "tables34",
    "thermal_study",
    "variation_study",
)

__all__ = sorted(_SUBMODULES)


def __getattr__(name: str):
    """Lazily import submodules."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def __dir__():
    return __all__
