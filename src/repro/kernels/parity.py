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
flagged at its line here. :func:`verify_parity` re-validates the same
contract at runtime (the unit tests call it), so a registry that
drifts from the importable truth fails fast in both worlds.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

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
    "repro.vmin.model.workload_delta_limit_mv": (
        "constant accessor; kernels take the delta as an input axis"
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
    "repro.vmin.faults.FaultModel.unsafe_region": (
        "returns an UnsafeRegion object; the numeric part is"
        " width_mv_grid"
    ),
    "repro.vmin.faults.FaultModel.probability_all_pass": (
        "(1 - pfail) ** runs convenience; batched callers compose"
        " pfail_grid with analytic_failure_counts"
    ),
    "repro.power.model.PowerModel.core_dynamic_w": (
        "component term folded into chip_power_grid"
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


def _resolve(dotted: str) -> object:
    """Import the object named by ``dotted`` (module.attr[.attr])."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        obj: object = module
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            break
        return obj
    raise LookupError(f"cannot resolve {dotted!r}")


def verify_parity() -> List[Tuple[str, str]]:
    """Runtime check of the registry against importable reality.

    Returns the ``(scalar, kernel)`` pairs of :data:`PARITY` after
    asserting every name on either side of the registry resolves to a
    callable and that no name sits in both tables. Raises
    :class:`LookupError` on a dangling name, :class:`ValueError` on a
    structural violation.
    """
    overlap = sorted(set(PARITY) & set(SCALAR_ONLY))
    if overlap:
        raise ValueError(
            f"names in both PARITY and SCALAR_ONLY: {overlap}"
        )
    for name, reason in SCALAR_ONLY.items():
        if not reason.strip():
            raise ValueError(f"SCALAR_ONLY[{name!r}] has no reason")
        if not callable(_resolve(name)):
            raise ValueError(f"SCALAR_ONLY key {name!r} not callable")
    pairs: List[Tuple[str, str]] = []
    for scalar, kernel in PARITY.items():
        if not callable(_resolve(scalar)):
            raise ValueError(f"PARITY key {scalar!r} not callable")
        if not callable(_resolve(kernel)):
            raise ValueError(f"PARITY value {kernel!r} not callable")
        pairs.append((scalar, kernel))
    return pairs
