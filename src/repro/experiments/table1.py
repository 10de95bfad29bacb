"""Table I — basic parameters of X-Gene 2 and X-Gene 3."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.tables import format_table
from ..platform.specs import ChipSpec, get_spec
from ..units import fmt_freq


@dataclass(frozen=True)
class Table1Result:
    """Both platform specs, side by side."""

    xgene2: ChipSpec
    xgene3: ChipSpec

    def rows(self) -> List[Tuple[str, str, str]]:
        """Parameter rows in the paper's order."""
        s2, s3 = self.xgene2, self.xgene3

        def mib(value: int) -> str:
            return f"{value // (1024 * 1024)}MB"

        def kib(value: int) -> str:
            return f"{value // 1024}KB"

        return [
            ("CPU", f"{s2.n_cores} cores", f"{s3.n_cores} cores"),
            ("Core clock", fmt_freq(s2.fmax_hz), fmt_freq(s3.fmax_hz)),
            (
                "L1 Instr. Cache",
                f"{kib(s2.caches.l1i_bytes)} per core",
                f"{kib(s3.caches.l1i_bytes)} per core",
            ),
            (
                "L1 Data Cache",
                f"{kib(s2.caches.l1d_bytes)} per core",
                f"{kib(s3.caches.l1d_bytes)} per core",
            ),
            (
                "L2 cache",
                f"{kib(s2.caches.l2_bytes_per_pmd)} per PMD",
                f"{kib(s3.caches.l2_bytes_per_pmd)} per PMD",
            ),
            (
                "L3 cache",
                mib(s2.caches.l3_bytes),
                mib(s3.caches.l3_bytes),
            ),
            (
                "Technology",
                f"{s2.technology_nm} nm (bulk CMOS)",
                f"{s3.technology_nm} nm (FinFET)",
            ),
            ("TDP", f"{s2.tdp_w:.0f} W", f"{s3.tdp_w:.0f} W"),
            (
                "Nominal Voltage",
                f"{s2.nominal_voltage_mv} mV",
                f"{s3.nominal_voltage_mv} mV",
            ),
        ]

    def format(self) -> str:
        """Render the table."""
        return format_table(
            ("Parameter", self.xgene2.name, self.xgene3.name),
            self.rows(),
            title="Table I - basic parameters",
        )


def run() -> Table1Result:
    """Collect both platform specs."""
    return Table1Result(xgene2=get_spec("xgene2"), xgene3=get_spec("xgene3"))


def render(
    platform: str | None, duration_s: float, seed: int, policy: str | None
) -> Table1Result:
    """Table I (platform-independent: always both chips)."""
    return run()
