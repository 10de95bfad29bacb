"""Plain-text rendering of experiment tables.

Every experiment module renders through :func:`format_table` so the
benchmark harness and the CLI print the paper's tables and figure
series in one consistent format.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..errors import ConfigurationError


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e6 or magnitude < 1e-3:
            return f"{value:.3e}"
        if magnitude >= 100:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)
