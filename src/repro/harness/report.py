"""Plain-text table and bar-chart renderers for the benchmark harness.

Every benchmark prints the rows/series of its paper table or figure
through these helpers, so outputs are uniform and diffable.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

#: bar length of the largest value, in characters
BAR_WIDTH = 40
GROUPED_BAR_WIDTH = 30


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: Optional[str] = None,
) -> str:
    """Fixed-width table with a title rule, like the paper's tables."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_bars(title: str, series: Dict[str, float], unit: str = "") -> str:
    """Horizontal ASCII bar chart (one bar per key), for the figures."""
    lines = [f"== {title} =="]
    if not series:
        return lines[0] + "\n(empty)"
    label_w = max(len(k) for k in series)
    peak = max(abs(v) for v in series.values()) or 1.0
    for key, value in series.items():
        frac = abs(value) / peak
        bar = "#" * max(1 if value else 0, int(round(frac * BAR_WIDTH)))
        lines.append(f"{key.ljust(label_w)} | {bar} {value:.4g}{unit}")
    return "\n".join(lines)


def render_grouped_bars(
    title: str,
    groups: Sequence[str],
    series: Dict[str, Dict[str, float]],
    unit: str = "",
) -> str:
    """Grouped bars: for each group, one bar per series (figure style)."""
    lines = [f"== {title} =="]
    label_w = max(
        [len(f"{g} {s}") for g in groups for s in series] + [1]
    )
    peak = max(
        [abs(series[s].get(g, 0.0)) for g in groups for s in series] + [1e-12]
    )
    for group in groups:
        for name, values in series.items():
            value = values.get(group)
            if value is None:
                lines.append(f"{(group + ' ' + name).ljust(label_w)} | n/a")
                continue
            bar = "#" * int(round(abs(value) / peak * GROUPED_BAR_WIDTH))
            lines.append(
                f"{(group + ' ' + name).ljust(label_w)} | {bar} {value:.4g}{unit}"
            )
        lines.append("")
    return "\n".join(lines)
