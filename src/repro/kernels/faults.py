"""Batched counterparts of the scalar fault model.

Vectorizes :meth:`FaultModel.pfail` and :meth:`FaultModel.outcome_mix`
over arbitrary (voltage, safe Vmin, droop class) grids, plus the
analytic outcome-count reduction of the campaign protocol: expected
counts with the campaign's exact rounding — half-to-even per failure
type, rounding residue assigned to the dominant type. The batched
analytic sweeps of :class:`~repro.vmin.characterize.VminCampaign` are
built from these.

All arithmetic mirrors the scalar operation order, so results are bit
for bit identical to the scalar fault model and to a level-by-level
analytic campaign (the test oracle in ``tests/campaign_oracle.py``).
Monte-Carlo (``trials``) campaigns have no kernel: they draw level by
level on the campaign's sequential RNG stream.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import telemetry
from ..telemetry import names as metric_names
from ..vmin.faults import (
    OUTCOME_CRASH,
    OUTCOME_HANG,
    OUTCOME_SDC,
    OUTCOME_TIMEOUT,
    FaultModel,
)

#: Failure-type order of the batched mix arrays. This is the iteration
#: order of the scalar ``outcome_mix`` dict, which matters: the analytic
#: rounding residue goes to the *first* maximal type in this order.
MIX_ORDER = (OUTCOME_CRASH, OUTCOME_SDC, OUTCOME_HANG, OUTCOME_TIMEOUT)


def width_mv_grid(
    fault_model: FaultModel, droop_class: np.ndarray
) -> np.ndarray:
    """Batched :meth:`FaultModel.width_mv`: unsafe-region width per class."""
    return np.maximum(
        fault_model.MIN_WIDTH_MV,
        fault_model.MAX_WIDTH_MV
        - fault_model.WIDTH_STEP_MV * np.asarray(droop_class),
    )


def pfail_grid(
    fault_model: FaultModel,
    voltage_mv: np.ndarray,
    safe_vmin_mv: np.ndarray,
    droop_class: np.ndarray,
) -> np.ndarray:
    """Batched :meth:`FaultModel.pfail` over broadcastable arrays.

    Zero at and above the safe Vmin, one at and below the crash point,
    the smoothstep of Fig. 5 in between — evaluated with the scalar
    expression order, so every element equals the scalar ``pfail``.
    """
    depth = np.asarray(safe_vmin_mv, dtype=np.float64) - np.asarray(
        voltage_mv
    )
    telemetry.observe(metric_names.KERNELS_FAULTS_BATCH, depth.size)
    x = depth / width_mv_grid(fault_model, droop_class)
    smooth = x * x * (3.0 - 2.0 * x)
    return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, smooth))


def _depth_fraction(
    fault_model: FaultModel,
    voltage_mv: np.ndarray,
    safe_vmin_mv: np.ndarray,
    droop_class: np.ndarray,
) -> np.ndarray:
    depth = np.asarray(safe_vmin_mv, dtype=np.float64) - np.asarray(
        voltage_mv
    )
    width = width_mv_grid(fault_model, droop_class)
    return np.minimum(1.0, np.maximum(0.0, depth / width))


def outcome_mix_grid(
    fault_model: FaultModel,
    voltage_mv: np.ndarray,
    safe_vmin_mv: np.ndarray,
    droop_class: np.ndarray,
) -> np.ndarray:
    """Batched :meth:`FaultModel.outcome_mix`.

    Returns an array with one trailing axis of length 4 holding the
    conditional failure-type distribution in :data:`MIX_ORDER`.
    """
    x = _depth_fraction(fault_model, voltage_mv, safe_vmin_mv, droop_class)
    crash = 0.15 + 0.65 * x
    sdc = np.maximum(0.05, 0.55 - 0.40 * x)
    hang = 0.12 * (1.0 - 0.5 * x)
    timeout = np.maximum(0.0, 1.0 - crash - sdc - hang)
    total = crash + sdc + hang + timeout
    return np.stack(
        [crash / total, sdc / total, hang / total, timeout / total],
        axis=-1,
    )


def analytic_failure_counts(pfail: np.ndarray, runs: int) -> np.ndarray:
    """Batched expected failure counts with the campaign's rounding.

    ``failures = round(pfail * runs)`` (half to even), forced to at
    least one whenever ``pfail > 0`` — the failure-count half of an
    analytic campaign level.
    """
    pfail = np.asarray(pfail, dtype=np.float64)
    failures = np.rint(pfail * runs).astype(np.int64)
    return np.where(pfail > 0.0, np.maximum(failures, 1), failures)


def analytic_outcome_counts(
    pfail: np.ndarray, mix: np.ndarray, runs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Expected (failures, per-type split) with the campaign's rounding.

    Mirrors one analytic campaign level exactly: failures via
    :func:`analytic_failure_counts`; the per-type split rounds each
    share half-to-even and assigns the integer residue to the dominant
    (first maximal, in :data:`MIX_ORDER`) failure type.

    ``pfail`` has any shape; ``mix`` must append one axis of length 4 in
    :data:`MIX_ORDER`. Returns ``failures`` (same shape as ``pfail``,
    int64) and ``split`` (shape of ``mix``, int64).
    """
    failures = analytic_failure_counts(pfail, runs)
    split = np.rint(failures[..., None] * mix).astype(np.int64)
    residue = failures - split.sum(axis=-1)
    dominant = np.argmax(mix, axis=-1)
    np.put_along_axis(
        split,
        dominant[..., None],
        np.take_along_axis(split, dominant[..., None], axis=-1)
        + residue[..., None],
        axis=-1,
    )
    return failures, split

