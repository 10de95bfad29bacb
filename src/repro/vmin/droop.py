"""Voltage-droop model: magnitude classes and event generation (Fig. 6).

The paper's key physical observation (Section IV.A) is that in multicore
executions the *maximum voltage-droop magnitude* is set by the number of
utilized PMDs and the clock frequency — not by which program runs. Every
program produces the same maximum droop magnitude for a given core
allocation, which is why the safe Vmin becomes workload-independent as
soon as a few PMDs are active.

This module maps utilized-PMD counts to the droop-magnitude bins of
Table II / Figure 6 and generates droop-detection counts per million
cycles the way the X-Gene 3 embedded oscilloscope reports them.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..platform.registry import DroopParams, model_for_spec
from ..platform.specs import ChipSpec, FrequencyClass

#: Droop magnitude bins used throughout the paper, in mV (Table II, Fig. 6).
DROOP_BINS_MV: Tuple[Tuple[int, int], ...] = (
    (25, 35),
    (35, 45),
    (45, 55),
    (55, 65),
)


def droop_bin_index(spec: ChipSpec, utilized_pmds: int) -> int:
    """Droop-magnitude bin (index into ``DROOP_BINS_MV``) for a PMD count.

    On the 16-PMD X-Gene 3 this reproduces Table II exactly:
    1-2 PMDs -> [25,35), 3-4 -> [35,45), 5-8 -> [45,55), 9-16 -> [55,65).
    Other chip sizes use the same powers-of-two ladder relative to their
    own PMD count, so the 4-PMD X-Gene 2 spans three bins
    (1 PMD -> [25,35), 2 -> [35,45), 3-4 -> [45,55)).
    """
    if utilized_pmds <= 0:
        return 0
    if utilized_pmds > spec.n_pmds:
        raise ConfigurationError(
            f"{spec.name}: {utilized_pmds} utilized PMDs exceeds "
            f"{spec.n_pmds}"
        )
    for index, bound in enumerate(droop_ladder(spec)):
        if utilized_pmds <= bound:
            return index
    raise ConfigurationError(  # pragma: no cover - ladder ends at n_pmds
        f"{spec.name}: no droop class for {utilized_pmds} PMDs"
    )


def droop_ladder(spec: ChipSpec) -> Tuple[int, ...]:
    """Utilized-PMD boundaries of the droop-magnitude classes.

    Boundaries sit at 1/8, 1/4, 1/2 and all of the chip's PMDs, matching
    Table II's 2/4/8/16 ladder on the 16-PMD X-Gene 3. Duplicate rungs on
    small chips collapse, so the 4-PMD X-Gene 2 has the three classes
    (1, 2, 4 PMDs) starting from the mildest bin: a smaller chip's full
    complement draws a smaller worst-case current swing.
    """
    raw = [
        max(1, spec.n_pmds // 8),
        max(1, spec.n_pmds // 4),
        max(1, spec.n_pmds // 2),
        spec.n_pmds,
    ]
    ladder = []
    for bound in raw:
        if not ladder or bound > ladder[-1]:
            ladder.append(bound)
    return tuple(ladder)


def droop_bin(spec: ChipSpec, utilized_pmds: int) -> Tuple[int, int]:
    """Droop-magnitude bin bounds in mV for a utilized-PMD count."""
    return DROOP_BINS_MV[droop_bin_index(spec, utilized_pmds)]


class DroopModel:
    """Generates droop-detection counts per million cycles (Fig. 6)."""

    def __init__(
        self,
        spec: ChipSpec,
        seed: int = 0,
        params: Optional[DroopParams] = None,
    ):
        self.spec = spec
        self._seed = seed
        if params is None:
            params = model_for_spec(spec).droop
        self.params = params
        self._freq_scale = {
            FrequencyClass.HIGH: 1.0,
            FrequencyClass.SKIP: params.freq_scale_skip,
            FrequencyClass.DIVIDE: params.freq_scale_divide,
        }

    def rates_per_mcycles(
        self,
        utilized_pmds: int,
        freq_class: FrequencyClass = FrequencyClass.HIGH,
        activity: float = 1.0,
        jitter: bool = True,
        workload_name: str = "",
    ) -> Dict[Tuple[int, int], float]:
        """Detections per 1 M cycles in every magnitude bin.

        The configuration's ceiling bin comes from the utilized-PMD
        count; lower bins see geometrically more events; higher bins see
        essentially none. At reduced frequency classes the whole
        distribution shifts down one bin's worth of energy, thinning the
        ceiling bin.
        """
        if activity <= 0:
            raise ConfigurationError("activity factor must be positive")
        ceiling = droop_bin_index(self.spec, utilized_pmds)
        rng = (
            random.Random(f"{self._seed}/{workload_name}/{utilized_pmds}")
            if jitter
            else None
        )
        rates: Dict[Tuple[int, int], float] = {}
        freq_scale = self._freq_scale[freq_class]
        params = self.params
        above_ceiling = params.above_ceiling_rate
        for index, bin_ in enumerate(DROOP_BINS_MV):
            if index > ceiling:
                rate = above_ceiling
            else:
                depth = ceiling - index
                rate = (
                    params.base_rate_per_mcycles
                    * (params.lower_bin_multiplier ** depth)
                    * activity
                    * freq_scale
                )
            if rng is not None and rate > above_ceiling:
                rate *= 1.0 + 0.25 * (rng.random() - 0.5)
            rates[bin_] = rate
        return rates
