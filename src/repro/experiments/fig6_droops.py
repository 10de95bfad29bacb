"""Figure 6 — voltage-droop detections per magnitude bin (X-Gene 3, 3 GHz).

Reproduces the embedded-oscilloscope measurement: for every program and
core-allocation option, the droop detections per million cycles in the
[55, 65) mV and [45, 55) mV magnitude bins. The headline pattern:

* 32T and 16T-spreaded (16 PMDs busy) populate the [55, 65) bin;
  16T-clustered (8 PMDs) shows almost zero detections there;
* 16T-clustered and 8T-spreaded (8 PMDs) populate the [45, 55) bin;
  8T-clustered (4 PMDs) shows almost zero detections there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..allocation import Allocation, utilized_pmd_count
from ..analysis.tables import format_table
from ..platform.specs import get_spec
from ..units import hz_to_ghz
from ..vmin.droop import DroopModel
from ..workloads.profiles import BenchmarkProfile
from ..workloads.suites import characterization_set

#: The two magnitude bins Fig. 6 plots, in mV.
FIG6_BINS: Tuple[Tuple[int, int], ...] = ((55, 65), (45, 55))


@dataclass(frozen=True)
class Fig6Row:
    """Droop detections of one program in one configuration."""

    benchmark: str
    label: str
    utilized_pmds: int
    bin_mv: Tuple[int, int]
    detections_per_mcycles: float


@dataclass
class Fig6Result:
    """All Fig. 6 droop-rate measurements."""

    platform: str
    freq_hz: int
    rows: List[Fig6Row] = field(default_factory=list)

    def rates(
        self, label: str, bin_mv: Tuple[int, int]
    ) -> Dict[str, float]:
        """benchmark -> detections/1M cycles for one config and bin."""
        return {
            r.benchmark: r.detections_per_mcycles
            for r in self.rows
            if r.label == label and r.bin_mv == bin_mv
        }

    def format(self) -> str:
        """Render both bins."""
        return format_table(
            ("bin(mV)", "configuration", "PMDs", "benchmark", "droops/1Mcyc"),
            [
                (
                    f"[{r.bin_mv[0]},{r.bin_mv[1]})",
                    r.label,
                    r.utilized_pmds,
                    r.benchmark,
                    round(r.detections_per_mcycles, 2),
                )
                for r in self.rows
            ],
            title=(
                f"Figure 6 - voltage droop detections "
                f"({self.platform} @ {hz_to_ghz(self.freq_hz):.1f}GHz)"
            ),
        )


def default_configs(spec) -> List[Tuple[int, Allocation, str]]:
    """The five configurations Fig. 6 compares."""
    full = spec.n_cores
    half = full // 2
    quarter = full // 4
    return [
        (full, Allocation.CLUSTERED, f"{full}T"),
        (half, Allocation.SPREADED, f"{half}T(spreaded)"),
        (half, Allocation.CLUSTERED, f"{half}T(clustered)"),
        (quarter, Allocation.SPREADED, f"{quarter}T(spreaded)"),
        (quarter, Allocation.CLUSTERED, f"{quarter}T(clustered)"),
    ]


def run(
    platform: str = "xgene3",
    benchmarks: Optional[Sequence[BenchmarkProfile]] = None,
    silicon_seed: int = 0,
) -> Fig6Result:
    """Generate the Fig. 6 droop-rate measurements."""
    spec = get_spec(platform)
    pool = list(benchmarks) if benchmarks else characterization_set()
    model = DroopModel(spec, seed=silicon_seed)
    result = Fig6Result(platform=spec.name, freq_hz=spec.fmax_hz)
    for nthreads, allocation, label in default_configs(spec):
        pmds = utilized_pmd_count(spec, nthreads, allocation)
        for profile in pool:
            rates = model.rates_per_mcycles(
                pmds,
                spec.frequency_class(spec.fmax_hz),
                activity=profile.droop_activity,
                workload_name=profile.name,
            )
            for bin_mv in FIG6_BINS:
                result.rows.append(
                    Fig6Row(
                        benchmark=profile.name,
                        label=label,
                        utilized_pmds=pmds,
                        bin_mv=bin_mv,
                        detections_per_mcycles=rates[bin_mv],
                    )
                )
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig6Result:
    """The Fig. 6 droop histogram for one platform."""
    return run(platform)
