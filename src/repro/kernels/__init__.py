"""Batched (array-in/array-out) evaluation kernels.

Every paper artefact sweeps the same closed-form models — safe Vmin,
failure probability, chip power — over an operating-point grid of
(voltage, frequency class, PMD occupancy, workload delta). The scalar
APIs in :mod:`repro.vmin` and :mod:`repro.power` evaluate one point per
Python call, so full characterization campaigns are bounded by
interpreter overhead rather than arithmetic. This package provides NumPy
counterparts that evaluate whole grids in one call:

* :mod:`repro.kernels.vmin` — batched
  :meth:`~repro.vmin.model.VminModel.evaluate` /
  :meth:`~repro.vmin.model.VminModel.safe_vmin_mv`;
* :mod:`repro.kernels.faults` — batched
  :meth:`~repro.vmin.faults.FaultModel.pfail` /
  :meth:`~repro.vmin.faults.FaultModel.outcome_mix` and the analytic
  outcome-count reduction of the campaign protocol (Monte-Carlo
  ``trials`` campaigns draw level by level and have no kernel);
* :mod:`repro.kernels.power` — the batched
  :meth:`~repro.power.model.PowerModel.chip_power` closed form used by
  the energy grids (Figs. 7/11/12).

**Equivalence contract.** Each kernel mirrors the floating-point
operation order of its scalar counterpart (including reduction order,
rounding mode and residue placement), so results are bit-for-bit
identical — not merely close. The scalar APIs remain the reference
implementations; the property tests in ``tests/vmin/test_kernels.py``
assert exact equality, and ``docs/PERFORMANCE.md`` documents the
contract. The level-by-level analytic campaign the batched
:class:`~repro.vmin.characterize.VminCampaign` sweeps replace lives on
as a test oracle in ``tests/campaign_oracle.py``. The scalar-to-kernel
mapping itself is recorded in :mod:`repro.kernels.parity`
(:data:`~repro.kernels.parity.PARITY` /
:data:`~repro.kernels.parity.SCALAR_ONLY`) and enforced statically by
``reprolint`` rule RL003 and at runtime by
:func:`~repro.kernels.parity.verify_parity`.
"""

from .faults import (
    MIX_ORDER,
    analytic_failure_counts,
    analytic_outcome_counts,
    outcome_mix_grid,
    pfail_grid,
    width_mv_grid,
)
from .parity import PARITY, SCALAR_ONLY, verify_parity
from .power import PowerGrid, chip_power_grid
from .vmin import VminGrid, evaluate_grid, safe_vmin_grid, safe_vmin_matrix

__all__ = [
    "MIX_ORDER",
    "PARITY",
    "PowerGrid",
    "SCALAR_ONLY",
    "VminGrid",
    "analytic_failure_counts",
    "analytic_outcome_counts",
    "chip_power_grid",
    "evaluate_grid",
    "outcome_mix_grid",
    "pfail_grid",
    "safe_vmin_grid",
    "safe_vmin_matrix",
    "verify_parity",
    "width_mv_grid",
]
