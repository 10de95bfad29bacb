"""Table II — droop magnitude vs frequency and core allocation.

The daemon's policy table for X-Gene 3: droop-magnitude class, the
utilized-PMD counts and thread-scaling options that map to it, and the
safe Vmin at 3 GHz and 1.5 GHz. This experiment regenerates the table
from the characterization-backed :class:`VminPolicyTable` and reports the
paper's published values next to the measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis.tables import format_table
from ..core.policy import VminPolicyTable
from ..platform.pmu import DROOP_BINS_MV
from ..platform.registry import platform_key_for_spec
from ..platform.specs import FrequencyClass, get_spec
from ..vmin.droop import droop_ladder

#: Paper Table II Vmin values for X-Gene 3, by droop class:
#: (Vmin @ 3GHz, Vmin @ 1.5GHz), in mV.
PAPER_TABLE2_MV: Tuple[Tuple[int, int], ...] = (
    (780, 770),
    (800, 780),
    (810, 790),
    (830, 820),
)

#: Paper Table II thread-scaling examples per droop class (X-Gene 3).
PAPER_THREAD_SCALING: Tuple[str, ...] = (
    "1T, 2T, 4T(clustered)",
    "8T(clustered), 4T(spreaded)",
    "16T(clustered), 8T(spreaded)",
    "32T, 16T(spreaded)",
)


@dataclass(frozen=True)
class Table2Row:
    """One droop class of the policy table."""

    droop_class: int
    droop_bin_mv: Tuple[int, int]
    max_utilized_pmds: int
    thread_scaling: str
    vmin_high_mv: int
    vmin_skip_mv: int
    paper_high_mv: Optional[int]
    paper_skip_mv: Optional[int]


@dataclass
class Table2Result:
    """The regenerated policy table plus paper references."""

    platform: str
    rows: List[Table2Row] = field(default_factory=list)

    def format(self) -> str:
        """Render measured vs paper values."""
        return format_table(
            (
                "droop(mV)",
                "PMDs",
                "thread scaling",
                "Vmin@max",
                "Vmin@half",
                "paper@max",
                "paper@half",
            ),
            [
                (
                    f"[{r.droop_bin_mv[0]},{r.droop_bin_mv[1]})",
                    r.max_utilized_pmds,
                    r.thread_scaling,
                    r.vmin_high_mv,
                    r.vmin_skip_mv,
                    r.paper_high_mv if r.paper_high_mv else "-",
                    r.paper_skip_mv if r.paper_skip_mv else "-",
                )
                for r in self.rows
            ],
            title=f"Table II - droop classes and safe Vmin ({self.platform})",
        )


def run(
    platform: str = "xgene3",
    policy: Optional[VminPolicyTable] = None,
) -> Table2Result:
    """Regenerate Table II for one platform."""
    spec = get_spec(platform)
    table = policy or VminPolicyTable.from_characterization(spec)
    ladder = droop_ladder(spec)
    # The paper publishes Table II only for its 32-core machine.
    is_paper_chip = platform_key_for_spec(spec) == "xgene3"
    result = Table2Result(platform=spec.name)
    for droop_class, bound in enumerate(ladder):
        high = table.entry(FrequencyClass.HIGH, droop_class).vmin_mv
        skip = table.entry(FrequencyClass.SKIP, droop_class).vmin_mv
        paper_high = paper_skip = None
        scaling = f"configs on <= {bound} PMDs"
        if is_paper_chip and droop_class < len(PAPER_TABLE2_MV):
            paper_high, paper_skip = PAPER_TABLE2_MV[droop_class]
            scaling = PAPER_THREAD_SCALING[droop_class]
        result.rows.append(
            Table2Row(
                droop_class=droop_class,
                droop_bin_mv=DROOP_BINS_MV[droop_class],
                max_utilized_pmds=bound,
                thread_scaling=scaling,
                vmin_high_mv=high,
                vmin_skip_mv=skip,
                paper_high_mv=paper_high,
                paper_skip_mv=paper_skip,
            )
        )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Table2Result:
    """Table II for one platform."""
    return run(platform)
