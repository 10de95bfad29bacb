"""Batched counterparts of the scalar safe-Vmin model.

The ground truth is closed-form over the operating grid
(:mod:`repro.vmin.model`)::

    Vmin = base(freq class, droop class)
           + attenuation(|cores|) * (core offset + workload delta)

clamped to the nominal rail. The kernels here evaluate that expression
for many configurations at once, reusing the scalar model for the cheap
per-configuration discrete lookups (droop class, frequency class, base
table row) and vectorizing the arithmetic, which is where campaign time
goes. The floating-point expression is evaluated in exactly the scalar
order, so totals are bit-for-bit identical to
:meth:`VminModel.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from ..platform.specs import FrequencyClass
from ..units import HertzInt
from ..telemetry import names as metric_names
from ..vmin.droop import droop_bin_index
from ..vmin.model import VminModel, variation_attenuation

#: One core set: any iterable of core ids.
CoreSet = Iterable[int]


@dataclass(frozen=True, slots=True)
class VminGrid:
    """Decomposition arrays of one batched Vmin evaluation (N points).

    The array fields line up with the scalar
    :class:`~repro.vmin.model.VminBreakdown` attributes; ``total_mv`` is
    the safe Vmin per point.
    """

    base_mv: np.ndarray
    attenuation: np.ndarray
    core_offset_mv: np.ndarray
    workload_delta_mv: np.ndarray
    total_mv: np.ndarray
    droop_class: np.ndarray
    freq_class: Tuple[FrequencyClass, ...]

    def __len__(self) -> int:
        return self.total_mv.shape[0]


class _PointCompiler:
    """Maps (freq, core set) pairs to their discrete model terms.

    The discrete lookups are memoized per unique frequency and per
    unique core set: campaign grids revisit the same handful of
    configurations across the whole benchmark pool.
    """

    def __init__(self, model: VminModel):
        self.model = model
        self._freq_memo: Dict[int, FrequencyClass] = {}
        self._core_memo: Dict[
            Tuple[int, ...], Tuple[int, float, float]
        ] = {}

    def freq_class(self, freq_hz: HertzInt) -> FrequencyClass:
        cached = self._freq_memo.get(freq_hz)
        if cached is None:
            spec = self.model.spec
            cached = spec.frequency_class(spec.nearest_frequency(freq_hz))
            self._freq_memo[freq_hz] = cached
        return cached

    def core_terms(self, cores: Tuple[int, ...]) -> Tuple[int, float, float]:
        """(droop class, attenuation, worst core offset) of a core set."""
        cached = self._core_memo.get(cores)
        if cached is None:
            spec = self.model.spec
            unique = frozenset(cores)
            pmds = {spec.pmd_of_core(c) for c in unique}
            droop_class = droop_bin_index(spec, max(1, len(pmds)))
            cached = (
                droop_class,
                variation_attenuation(len(unique)),
                self.model.variation.max_offset(unique),
            )
            self._core_memo[cores] = cached
        return cached


def _as_list(value: Any, n: int, name: str) -> List[Any]:
    """Broadcast a scalar to length ``n`` or validate a sequence."""
    if isinstance(value, (list, tuple)):
        if len(value) not in (1, n):
            raise ValueError(
                f"{name}: expected length {n}, got {len(value)}"
            )
        return list(value) * (n // len(value)) if len(value) == 1 else list(value)
    return [value] * n


def evaluate_grid(
    model: VminModel,
    freq_hz: Union[int, Sequence[int]],
    cores: Union[CoreSet, Sequence[CoreSet]],
    workload_delta_mv: Union[float, Sequence[float]] = 0.0,
) -> VminGrid:
    """Batched :meth:`VminModel.evaluate` over N configurations.

    ``freq_hz``, ``cores`` and ``workload_delta_mv`` are each either one
    value (shared by every point) or a sequence of N values; ``cores``
    entries are core-id iterables. Returns per-point decomposition
    arrays whose totals match the scalar evaluation bit for bit.
    """
    core_sets = _normalize_core_sets(cores)
    n = max(
        len(core_sets),
        len(freq_hz) if isinstance(freq_hz, (list, tuple)) else 1,
        len(workload_delta_mv)
        if isinstance(workload_delta_mv, (list, tuple))
        else 1,
    )
    if len(core_sets) not in (1, n):
        raise ValueError(
            f"cores: expected {n} core sets, got {len(core_sets)}"
        )
    if len(core_sets) == 1:
        core_sets = core_sets * n
    freqs = _as_list(freq_hz, n, "freq_hz")
    deltas = _as_list(workload_delta_mv, n, "workload_delta_mv")
    telemetry.observe(metric_names.KERNELS_VMIN_BATCH, n)

    compile_ = _PointCompiler(model)
    base = np.empty(n, dtype=np.float64)
    atten = np.empty(n, dtype=np.float64)
    offset = np.empty(n, dtype=np.float64)
    droop = np.empty(n, dtype=np.int64)
    classes: List[FrequencyClass] = []
    for i in range(n):
        fclass = compile_.freq_class(freqs[i])
        droop_class, attenuation, core_offset = compile_.core_terms(
            core_sets[i]
        )
        base[i] = model.base_vmin_mv(fclass, droop_class)
        atten[i] = attenuation
        offset[i] = core_offset
        droop[i] = droop_class
        classes.append(fclass)
    delta = np.asarray(deltas, dtype=np.float64)
    # Same expression, same order as the scalar model:
    # total = min(base + atten * (core_offset + delta), nominal).
    total = np.minimum(
        base + atten * (offset + delta),
        float(model.spec.nominal_voltage_mv),
    )
    return VminGrid(
        base_mv=base,
        attenuation=atten,
        core_offset_mv=offset,
        workload_delta_mv=delta,
        total_mv=total,
        droop_class=droop,
        freq_class=tuple(classes),
    )


def _normalize_core_sets(cores: Any) -> List[Tuple[int, ...]]:
    """Normalize ``cores`` to a list of core-id tuples."""
    seq = list(cores)
    if seq and all(isinstance(c, (int, np.integer)) for c in seq):
        return [tuple(int(c) for c in seq)]
    return [tuple(int(c) for c in entry) for entry in seq]


def safe_vmin_grid(
    model: VminModel,
    freq_hz: Union[int, Sequence[int]],
    cores: Union[CoreSet, Sequence[CoreSet]],
    workload_delta_mv: Union[float, Sequence[float]] = 0.0,
) -> np.ndarray:
    """Batched :meth:`VminModel.safe_vmin_mv`: safe Vmin (mV) per point."""
    return evaluate_grid(model, freq_hz, cores, workload_delta_mv).total_mv


def safe_vmin_matrix(
    model: VminModel,
    freq_hz: int,
    core_sets: Sequence[CoreSet],
    workload_deltas_mv: Sequence[float],
) -> np.ndarray:
    """Safe-Vmin matrix over core sets x workload deltas at one frequency.

    Returns shape ``(len(core_sets), len(workload_deltas_mv))`` — the
    outer-product grid the policy-table reduction consumes. Entry
    ``[s, d]`` equals
    ``model.safe_vmin_mv(freq_hz, core_sets[s], workload_deltas_mv[d])``
    exactly.
    """
    compile_ = _PointCompiler(model)
    fclass = compile_.freq_class(freq_hz)
    sets = [tuple(int(c) for c in entry) for entry in core_sets]
    base = np.empty(len(sets), dtype=np.float64)
    atten = np.empty(len(sets), dtype=np.float64)
    offset = np.empty(len(sets), dtype=np.float64)
    for i, entry in enumerate(sets):
        droop_class, attenuation, core_offset = compile_.core_terms(entry)
        base[i] = model.base_vmin_mv(fclass, droop_class)
        atten[i] = attenuation
        offset[i] = core_offset
    delta = np.asarray(list(workload_deltas_mv), dtype=np.float64)
    return np.minimum(
        base[:, None] + atten[:, None] * (offset[:, None] + delta[None, :]),
        float(model.spec.nominal_voltage_mv),
    )
