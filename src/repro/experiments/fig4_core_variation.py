"""Figure 4 — single- and two-core Vmin regions on X-Gene 2 at 2.4 GHz.

With one or two active cores, the droop noise floor is low and the
static core-to-core variation shows: each core (and each PMD) has its own
safe region. On the paper's chip, PMD2 (cores 4/5) is the most robust
module and PMD0/PMD1 the most sensitive; workload-to-workload variation
reaches ~40 mV and core-to-core variation ~30 mV.

For every core (single-core runs) and every PMD (two-core runs) this
experiment reports the safe region boundary per benchmark: the safe Vmin
(bottom of the yellow region in the paper's plot) and the crash point
(bottom of the dark region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..allocation import Allocation
from ..analysis.tables import format_table
from ..platform.specs import get_spec
from ..units import hz_to_ghz
from ..vmin.characterize import VminCampaign
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import characterization_set


@dataclass(frozen=True)
class Fig4Row:
    """Safe/unsafe boundary of one benchmark on one core (or PMD)."""

    benchmark: str
    scope: str  # "core" or "pmd"
    index: int
    safe_vmin_mv: int
    crash_mv: int


@dataclass
class Fig4Result:
    """All single-core and two-core region boundaries."""

    platform: str
    freq_hz: int
    rows: List[Fig4Row] = field(default_factory=list)

    def _scope_vmins(self, scope: str) -> dict:
        out: dict = {}
        for row in self.rows:
            if row.scope == scope:
                out.setdefault(row.index, []).append(row.safe_vmin_mv)
        return out

    def core_to_core_spread_mv(self) -> float:
        """Spread of per-core worst-case Vmin (paper: up to ~30 mV)."""
        worst = {
            idx: max(vals) for idx, vals in self._scope_vmins("core").items()
        }
        return max(worst.values()) - min(worst.values())

    def workload_spread_mv(self) -> float:
        """Largest per-core across-benchmark spread (paper: up to ~40 mV)."""
        spreads = [
            max(vals) - min(vals)
            for vals in self._scope_vmins("core").values()
        ]
        return max(spreads)

    def most_robust_pmd(self) -> int:
        """PMD with the lowest worst-case two-core Vmin (paper: PMD2)."""
        worst = {
            idx: max(vals) for idx, vals in self._scope_vmins("pmd").items()
        }
        return min(worst, key=worst.get)

    def most_sensitive_pmd(self) -> int:
        """PMD with the highest worst-case two-core Vmin (paper: PMD0/1)."""
        worst = {
            idx: max(vals) for idx, vals in self._scope_vmins("pmd").items()
        }
        return max(worst, key=worst.get)

    def format(self) -> str:
        """Render the per-core/per-PMD boundaries and their spreads."""
        table = format_table(
            ("scope", "index", "benchmark", "safe Vmin(mV)", "crash(mV)"),
            [
                (r.scope, r.index, r.benchmark, r.safe_vmin_mv, r.crash_mv)
                for r in self.rows
            ],
            title=(
                f"Figure 4 - single/two-core safe regions "
                f"({self.platform} @ {hz_to_ghz(self.freq_hz):.1f}GHz)"
            ),
        )
        return (
            f"{table}\n"
            f"\ncore-to-core spread: {self.core_to_core_spread_mv():.0f} mV"
            f"\nworkload spread:     {self.workload_spread_mv():.0f} mV"
            f"\nmost robust PMD:     PMD{self.most_robust_pmd()}"
        )


def run(
    platform: str = "xgene2",
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
    silicon_seed: int = 0,
) -> Fig4Result:
    """Run the Fig. 4 campaign (single-core and two-core scans)."""
    spec = get_spec(platform)
    freq_hz = spec.fmax_hz
    pool = list(benchmarks) if benchmarks else characterization_set()
    campaign = VminCampaign(spec, seed=silicon_seed)
    result = Fig4Result(platform=spec.name, freq_hz=freq_hz)
    # All per-core and per-PMD scans run as one batched kernel sweep;
    # row order matches the original scalar loops.
    points = []
    scopes: List[tuple] = []
    for core in range(spec.n_cores):
        for profile in pool:
            points.append(
                campaign.point(
                    profile.name,
                    1,
                    Allocation.CLUSTERED,
                    freq_hz,
                    cores=(core,),
                    workload_delta_mv=profile.vmin_delta_mv,
                )
            )
            scopes.append(("core", core))
    for pmd in range(spec.n_pmds):
        cores = spec.cores_of_pmd(pmd)
        for profile in pool:
            points.append(
                campaign.point(
                    profile.name,
                    len(cores),
                    Allocation.CLUSTERED,
                    freq_hz,
                    cores=cores,
                    workload_delta_mv=profile.vmin_delta_mv,
                )
            )
            scopes.append(("pmd", pmd))
    scans = campaign.scan_unsafe_region_batch(points)
    for point, (scope, index), scan in zip(points, scopes, scans):
        result.rows.append(
            Fig4Row(
                benchmark=point.workload,
                scope=scope,
                index=index,
                safe_vmin_mv=scan.safe_vmin_mv,
                crash_mv=scan.crash_voltage_mv,
            )
        )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig4Result:
    """Fig. 4 with its spread summary."""
    return run(platform)
