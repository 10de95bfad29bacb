"""Figure 3 — complete safe-Vmin characterization of both chips.

For each of the 25 benchmarks, the paper measures the safe Vmin (1000
passing runs) at every thread-scaling option and reported frequency:
X-Gene 2 with 8 and 4 threads at 2.4/1.2/0.9 GHz, X-Gene 3 with 32, 16
and 8 threads at 3.0/1.5 GHz. The headline observation: for a fixed
thread count and frequency, all 25 benchmarks land within ~10 mV of each
other — workload variation has essentially vanished in multicore runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..allocation import Allocation
from ..analysis.tables import format_table
from ..platform.registry import CharacterizationGrid, model_for_spec
from ..platform.specs import ChipSpec, get_spec
from ..units import fmt_freq
from ..vmin.characterize import VminCampaign
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import characterization_set


def characterization_grid(spec: ChipSpec) -> CharacterizationGrid:
    """Thread/frequency grid of a platform's Fig. 3 campaign.

    Declared in the platform's bundle (``[characterization]`` in its
    spec file).
    """
    return model_for_spec(spec).characterization


@dataclass(frozen=True)
class Fig3Row:
    """Safe Vmin of one benchmark at one configuration."""

    benchmark: str
    nthreads: int
    freq_hz: int
    safe_vmin_mv: int
    guardband_mv: float


@dataclass
class Fig3Result:
    """All characterization points of one platform."""

    platform: str
    rows: List[Fig3Row] = field(default_factory=list)

    def vmin_of(self, benchmark: str, nthreads: int, freq_hz: int) -> int:
        """Safe Vmin of one configuration."""
        for row in self.rows:
            if (
                row.benchmark == benchmark
                and row.nthreads == nthreads
                and row.freq_hz == freq_hz
            ):
                return row.safe_vmin_mv
        raise KeyError((benchmark, nthreads, freq_hz))

    def config_spread_mv(self, nthreads: int, freq_hz: int) -> float:
        """Across-benchmark Vmin spread of one (threads, freq) config.

        The paper's claim: at most ~10 mV in multicore runs.
        """
        values = [
            r.safe_vmin_mv
            for r in self.rows
            if r.nthreads == nthreads and r.freq_hz == freq_hz
        ]
        return max(values) - min(values)

    def format(self) -> str:
        """Render grouped by configuration."""
        table_rows: List[Tuple[str, str, int, int, float]] = []
        for row in sorted(
            self.rows,
            key=lambda r: (-r.nthreads, -r.freq_hz, r.benchmark),
        ):
            table_rows.append(
                (
                    f"{row.nthreads}T",
                    fmt_freq(row.freq_hz),
                    row.safe_vmin_mv,
                    int(row.guardband_mv),
                    row.benchmark,
                )
            )
        return format_table(
            ("threads", "freq", "Vmin(mV)", "guardband(mV)", "benchmark"),
            table_rows,
            title=f"Figure 3 - safe Vmin characterization ({self.platform})",
        )


def run(
    platform: str = "xgene2",
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
    silicon_seed: int = 0,
) -> Fig3Result:
    """Run the Fig. 3 campaign for one platform."""
    spec = get_spec(platform)
    grid = characterization_grid(spec)
    pool = list(benchmarks) if benchmarks else characterization_set()
    campaign = VminCampaign(spec, seed=silicon_seed)
    result = Fig3Result(platform=spec.name)
    # The whole (threads x freq x benchmark) campaign runs as one batched
    # kernel sweep; row order matches the original scalar loop.
    points = []
    for nthreads in grid.threads:
        allocation = (
            Allocation.CLUSTERED
            if nthreads == spec.n_cores
            else Allocation.SPREADED
        )
        for freq_hz in grid.freqs_hz:
            for profile in pool:
                points.append(
                    campaign.point(
                        profile.name,
                        nthreads,
                        allocation,
                        freq_hz,
                        workload_delta_mv=profile.vmin_delta_mv,
                    )
                )
    for point, measured in zip(
        points, campaign.measure_safe_vmin_batch(points)
    ):
        result.rows.append(
            Fig3Row(
                benchmark=point.workload,
                nthreads=point.nthreads,
                freq_hz=point.freq_hz,
                safe_vmin_mv=measured.safe_vmin_mv,
                guardband_mv=measured.guardband_mv,
            )
        )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig3Result:
    """The Fig. 3 campaign for one platform."""
    return run(platform)
