"""Small aggregation helpers used by the benchmark harness."""

from __future__ import annotations

from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def median(values: Sequence[float]) -> float:
    """Median (0.0 for an empty sequence)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    mid = len(vals) // 2
    if len(vals) % 2:
        return float(vals[mid])
    return (vals[mid - 1] + vals[mid]) / 2.0


def fraction(hits: int, total: int) -> str:
    """Render a success fraction the way the paper's tables do."""
    if total <= 0:
        return "n/a"
    if hits == total:
        return "Y"
    if hits == 0:
        return "N"
    return f"{hits}/{total}"
