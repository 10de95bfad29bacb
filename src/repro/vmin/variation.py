"""Static per-core manufacturing variation of the safe Vmin (Fig. 4).

In single- and two-core executions the paper measures up to ~30 mV
core-to-core Vmin variation on X-Gene 2 and up to ~20 mV combined
variation on X-Gene 3: PMD2 (cores 4 and 5) is the most robust module of
the characterized X-Gene 2 chip, while PMD0 and PMD1 are the most
sensitive. This module generates that static variation map.

``silicon_seed=0`` reproduces the specific chips of the paper (the PMD2
pattern above). Any other seed draws a random chip from the same
population, which is how the test-suite exercises chip-to-chip variation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..platform.registry import model_for_spec
from ..platform.specs import ChipSpec


@dataclass(frozen=True)
class CoreVariationMap:
    """Per-core static Vmin offsets (mV) for one silicon instance."""

    spec_name: str
    offsets_mv: Tuple[float, ...]

    def offset_of(self, core_id: int) -> float:
        """Static Vmin offset of one core, in mV."""
        if not 0 <= core_id < len(self.offsets_mv):
            raise ConfigurationError(
                f"{self.spec_name}: core {core_id} out of range"
            )
        return self.offsets_mv[core_id]

    def max_offset(self, core_ids) -> float:
        """Worst (largest) offset among a set of cores; 0 for empty set."""
        ids = list(core_ids)
        if not ids:
            return 0.0
        return max(self.offset_of(c) for c in ids)


def variation_rng(spec: ChipSpec, silicon_seed: int) -> random.Random:
    """The derived RNG stream of one ``(spec, seed)`` silicon instance.

    Keyed on the chip family name and the seed, so the same seed draws
    a different chip from each family's population but always the same
    chip within a family.
    """
    return random.Random((spec.name, silicon_seed).__repr__())


def make_variation_map(
    spec: ChipSpec,
    silicon_seed: int = 0,
    rng: Optional[random.Random] = None,
) -> CoreVariationMap:
    """Build the static variation map for one silicon instance.

    Seed 0 reproduces the specific characterized chip on platforms whose
    bundle carries hand-laid ``paper_offsets_mv`` (X-Gene 2's robust
    PMD2, Fig. 4); every other (spec, seed) pair draws offsets uniformly
    in ``[0, max_offset_mv]`` of the platform's variation parameters,
    with mild within-PMD
    correlation, since the two cores of a PMD share layout and supply
    routing.

    ``rng`` injects an explicit random stream and always draws from the
    population (it bypasses the paper-chip shortcut — an injected
    stream means the caller wants the draw, not the hand-laid table);
    by default the stream is derived via :func:`variation_rng`.
    """
    params = model_for_spec(spec).variation
    if rng is None:
        if silicon_seed == 0 and params.paper_offsets_mv is not None:
            return CoreVariationMap(spec.name, params.paper_offsets_mv)
        rng = variation_rng(spec, silicon_seed)
    limit = params.max_offset_mv
    offsets = []
    for pmd in range(spec.n_pmds):
        pmd_bias = rng.uniform(0.0, limit * 0.8)
        for _ in spec.cores_of_pmd(pmd):
            wiggle = rng.uniform(0.0, limit * 0.2)
            offsets.append(round(min(limit, pmd_bias + wiggle), 1))
    return CoreVariationMap(spec.name, tuple(offsets))
