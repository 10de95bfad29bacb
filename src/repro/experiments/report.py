"""Reproduction report: every experiment, paper vs measured.

``repro report`` emits a Markdown report in the style of EXPERIMENTS.md
with fresh numbers. The characterization and energy sections run their
figures on the paper chips, except the two campaigns the orchestrator
hands over as inputs (``depends``): Fig. 3 on X-Gene 3 and Fig. 4 on
X-Gene 2. The evaluation section formats the four paper-configuration
rows of the run's Tables III and IV, inputs too. Run
``repro report --duration 3600`` for the paper-scale evaluation rows.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Tuple

from ..core.configurations import CONFIG_NAMES
from ..platform.specs import get_spec
from ..units import ghz, hz_to_ghz
from . import (
    fig5_pfail as fig5,
    fig7_allocation_energy as fig7,
    fig8_contention as fig8,
    fig9_l3c_rates as fig9,
    fig10_factors as fig10,
    fig11_energy as fig11,
    fig12_ed2p as fig12,
    table2,
    tables34,
)
from .fig3_vmin_characterization import Fig3Result
from .fig4_core_variation import Fig4Result


def _chip(key: str) -> str:
    """Display name of a registry platform, for rendered headings."""
    return get_spec(key).name


def _md_table(out: io.StringIO, headers: List[str], rows) -> None:
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(str(v) for v in row) + " |\n")
    out.write("\n")


@dataclass
class Report:
    """The results the report formats, each on its paper chip."""

    duration_s: float
    seed: int
    vmin_campaign: Fig3Result
    core_regions: Fig4Result
    pfail: fig5.Fig5Result
    factors: fig10.Fig10Result
    droop_classes: table2.Table2Result
    allocation_energy: fig7.Fig7Result
    contention: fig8.Fig8Result
    l3c_rates: fig9.Fig9Result
    energy: fig11.Fig11Result
    ed2p: fig12.Fig12Result
    #: The run's Tables III and IV.
    evaluation: Tuple[tables34.TableResult, ...]

    def format(self) -> str:
        """The Markdown report."""
        out = io.StringIO()
        out.write("# Reproduction report\n\n")
        out.write(
            f"Evaluation workloads: {self.duration_s:.0f} s, seed "
            f"{self.seed}. Paper values in brackets where published.\n\n"
        )
        self._characterization_section(out)
        self._energy_section(out)
        self._evaluation_section(out)
        return out.getvalue()

    def _characterization_section(self, out: io.StringIO) -> None:
        out.write("## Characterization (Figs. 3-5, 10; Table II)\n\n")
        rows = []
        for nthreads in (32, 16, 8):
            for freq in (ghz(3.0), ghz(1.5)):
                values = [
                    row.safe_vmin_mv
                    for row in self.vmin_campaign.rows
                    if row.nthreads == nthreads and row.freq_hz == freq
                ]
                rows.append(
                    (
                        f"{nthreads}T @ {hz_to_ghz(freq):.1f} GHz",
                        f"{min(values)}-{max(values)} mV",
                        f"{max(values) - min(values)} mV",
                    )
                )
        _md_table(
            out, [f"{_chip('xgene3')} config", "safe Vmin", "spread"], rows
        )

        r4 = self.core_regions
        out.write(
            f"Single/two-core regions ({_chip('xgene2')}): core-to-core "
            f"spread {r4.core_to_core_spread_mv():.0f} mV [~30], workload "
            f"spread {r4.workload_spread_mv():.0f} mV [~40], most robust "
            f"PMD{r4.most_robust_pmd()} [PMD2].\n\n"
        )

        _md_table(
            out,
            ["pfail curve", "safe Vmin"],
            [(c.label, f"{c.safe_vmin_mv()} mV") for c in self.pfail.curves],
        )

        factors = self.factors.factors
        _md_table(
            out,
            ["Vmin factor", "measured", "paper"],
            [
                ("workload", f"{100 * factors['workload']:.1f} %", "~1 %"),
                (
                    "core allocation",
                    f"{100 * factors['core_allocation']:.1f} %",
                    "~4 %",
                ),
                (
                    "clock skipping",
                    f"{100 * factors['clock_skipping']:.1f} %",
                    "~3 %",
                ),
                (
                    "clock division",
                    f"{100 * factors['clock_division']:.1f} %",
                    "~12 %",
                ),
            ],
        )

        _md_table(
            out,
            ["droop bin", "PMDs", "Vmin@3GHz", "paper", "Vmin@1.5GHz",
             "paper"],
            [
                (
                    f"[{r.droop_bin_mv[0]},{r.droop_bin_mv[1]}) mV",
                    f"<= {r.max_utilized_pmds}",
                    f"{r.vmin_high_mv} mV",
                    f"{r.paper_high_mv} mV" if r.paper_high_mv else "-",
                    f"{r.vmin_skip_mv} mV",
                    f"{r.paper_skip_mv} mV" if r.paper_skip_mv else "-",
                )
                for r in self.droop_classes.rows
            ],
        )

    def _energy_section(self, out: io.StringIO) -> None:
        out.write("## Energy and performance (Figs. 7-9, 11, 12)\n\n")
        low, high = self.allocation_energy.span()
        out.write(
            f"Fig. 7 allocation-energy span: {low:.1f} % .. {high:+.1f} % "
            f"[-9.6 % .. +14.2 %].\n\n"
        )
        _md_table(
            out,
            ["Fig. 8 benchmark", "T1/TN"],
            [
                (name, f"{self.contention.ratio_of(name):.2f}")
                for name in ("namd", "EP", "milc", "FT", "CG")
            ],
        )
        r9 = self.l3c_rates
        out.write(
            f"Fig. 9 memory-intensive set ({len(r9.memory_intensive_set())} "
            f"programs above the 3K threshold): "
            f"{', '.join(r9.memory_intensive_set())}; classes stable across "
            f"thread counts: {r9.classes_stable()}.\n\n"
        )
        r11, r12 = self.energy, self.ed2p
        _md_table(
            out,
            [
                f"benchmark (8T, {_chip('xgene2')})",
                "E @2.4GHz",
                "E @1.2GHz",
                "E @0.9GHz",
                "best ED2P",
            ],
            [
                (
                    name,
                    f"{r11.energy_of(name, 8, ghz(2.4)):.0f} J",
                    f"{r11.energy_of(name, 8, ghz(1.2)):.0f} J",
                    f"{r11.energy_of(name, 8, ghz(0.9)):.0f} J",
                    f"{hz_to_ghz(r12.best_frequency(name, 8)):.1f} GHz",
                )
                for name in ("namd", "EP", "milc", "CG", "FT")
            ],
        )

    def _evaluation_section(self, out: io.StringIO) -> None:
        out.write("## Evaluation (Tables III/IV)\n\n")
        for table in self.evaluation:
            paper = table.paper_reference()
            rows = []
            # The paper's four configurations only: a ``--policy`` row
            # of the tables stays out of the report.
            for row in map(table.evaluation.row, CONFIG_NAMES):
                reference = paper.get(row.config, {}).get("energy_savings_pct")
                rows.append(
                    (
                        row.config,
                        f"{row.time_s:.0f} s",
                        f"{row.average_power_w:.2f} W",
                        f"{row.energy_savings_pct:.1f} %"
                        + (f" [{reference:.1f} %]" if reference else ""),
                        f"{row.ed2p_savings_pct:.1f} %",
                        row.violations,
                    )
                )
            out.write(f"### {table.platform}\n\n")
            _md_table(
                out,
                ["config", "time", "power", "energy saved", "ED2P saved",
                 "violations"],
                rows,
            )


def render(
    platform: str | None,
    duration_s: float,
    seed: int,
    policy: str | None,
    fig3: Fig3Result,
    fig4: Fig4Result,
    table3: tables34.TableResult,
    table4: tables34.TableResult,
) -> Report:
    """The report over this run's Fig. 3 on X-Gene 3, Fig. 4 on
    X-Gene 2 and Tables III and IV.

    It covers the paper chips whatever ``platform`` says, and only the
    paper's configurations whatever ``policy`` says.
    """
    energy = fig11.run("xgene2")
    return Report(
        duration_s=duration_s,
        seed=seed,
        vmin_campaign=fig3,
        core_regions=fig4,
        pfail=fig5.run("xgene3"),
        factors=fig10.run("xgene2"),
        droop_classes=table2.run("xgene3"),
        allocation_energy=fig7.run("xgene2"),
        contention=fig8.run("xgene3"),
        l3c_rates=fig9.run("xgene3"),
        energy=energy,
        ed2p=fig12.run(energy),
        evaluation=(table3, table4),
    )
