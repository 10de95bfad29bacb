"""Kernel/scalar parity registry.

The batched kernels in :mod:`repro.kernels` mirror the scalar models
(:mod:`repro.vmin.model`, :mod:`repro.vmin.faults`,
:mod:`repro.power.model`) bit for bit over grids of operating points.
This registry makes the mirroring an explicit, checkable contract:

* :data:`PARITY` maps every scalar callable that *has* a batched
  mirror to the kernel implementing it;
* :data:`SCALAR_ONLY` lists the scalar callables that deliberately
  have none, each with the reason.

``reprolint`` rule RL003 statically cross-checks both tables against
the source: a new public scalar callable must land in one of them, a
renamed kernel invalidates its ``PARITY`` entry, and a stale key is
flagged at its line here, and ``tests/lint/test_parity_registry.py``
resolves every name at runtime, so a registry that drifts from the
importable truth fails in both worlds.
"""

from __future__ import annotations

from typing import Dict

#: scalar callable -> the batched kernel mirroring it.
PARITY: Dict[str, str] = {
    "repro.vmin.model.VminModel.evaluate": (
        "repro.kernels.vmin.evaluate_grid"
    ),
    "repro.vmin.model.VminModel.safe_vmin_mv": (
        "repro.kernels.vmin.safe_vmin_grid"
    ),
    "repro.vmin.model.VminModel.safe_vmin_for_state": (
        "repro.kernels.vmin.safe_vmin_matrix"
    ),
    "repro.vmin.faults.FaultModel.width_mv": (
        "repro.kernels.faults.width_mv_grid"
    ),
    "repro.vmin.faults.FaultModel.pfail": (
        "repro.kernels.faults.pfail_grid"
    ),
    "repro.vmin.faults.FaultModel.depth_fraction": (
        "repro.kernels.faults._depth_fraction"
    ),
    "repro.vmin.faults.FaultModel.outcome_mix": (
        "repro.kernels.faults.outcome_mix_grid"
    ),
    "repro.power.model.PowerModel.chip_power": (
        "repro.kernels.power.chip_power_grid"
    ),
}

#: scalar callables with no batched mirror, and why none is needed.
SCALAR_ONLY: Dict[str, str] = {
    "repro.vmin.model.variation_attenuation": (
        "closed-form scalar already inlined by evaluate_grid's"
        " per-point compiler"
    ),
    "repro.vmin.model.VminModel.content_key": (
        "cache fingerprint payload consumed by repro.vmin.cache;"
        " not per-point math"
    ),
    "repro.vmin.model.VminModel.base_vmin_mv": (
        "per-frequency table lookup folded into evaluate_grid"
    ),
    "repro.vmin.model.VminModel.factor_decomposition": (
        "report-time diagnostic dict; never evaluated over grids"
    ),
    "repro.power.model.PowerModel.core_leakage_w": (
        "component term folded into chip_power_grid"
    ),
    "repro.power.model.PowerModel.pmd_overhead_w": (
        "component term folded into chip_power_grid"
    ),
    "repro.power.model.PowerModel.uncore_power_w": (
        "component term folded into chip_power_grid"
    ),
    "repro.power.model.PowerModel.idle_power_w": (
        "scalar convenience over chip_power at the idle state"
    ),
    "repro.power.model.PowerModel.max_power_w": (
        "scalar envelope bound used for validation, not swept"
    ),
}
