"""Figure 10 — the magnitude of each safe-Vmin factor (X-Gene 2).

The decomposition of the exposed guardband into its contributors, as a
percentage of the nominal voltage: workload variability ~1 %, core
allocation ~4 %, clock skipping ~3 %, and clock division ~12 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.tables import format_table
from ..platform.specs import get_spec
from ..vmin.model import VminModel

#: Paper values, fraction of nominal voltage (Fig. 10).
PAPER_FACTORS: Dict[str, float] = {
    "workload": 0.01,
    "core_allocation": 0.04,
    "clock_skipping": 0.03,
    "clock_division": 0.12,
}


@dataclass(frozen=True)
class Fig10Result:
    """Measured factor decomposition vs the paper's."""

    platform: str
    factors: Dict[str, float]

    def rows(self) -> List[Tuple[str, float, float]]:
        """(factor, measured %, paper %) rows."""
        return [
            (
                name,
                round(100.0 * self.factors[name], 1),
                round(100.0 * PAPER_FACTORS.get(name, 0.0), 1),
            )
            for name in self.factors
        ]

    def format(self) -> str:
        """Render measured-vs-paper."""
        return format_table(
            ("factor", "measured(%)", "paper(%)"),
            self.rows(),
            title=f"Figure 10 - Vmin factor magnitudes ({self.platform})",
        )


def run(platform: str = "xgene2", silicon_seed: int = 0) -> Fig10Result:
    """Derive the factor decomposition from the Vmin model."""
    spec = get_spec(platform)
    model = VminModel(spec, silicon_seed=silicon_seed)
    return Fig10Result(
        platform=spec.name, factors=model.factor_decomposition()
    )


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig10Result:
    """The Fig. 10 factor decomposition for one platform."""
    return run(platform)
