"""Scaling-study helpers the ablations share: a speedup/efficiency
table over configuration sizes and a per-member load-balance factor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.util.tables import format_table


@dataclass
class ScalingPoint:
    """One point of a scaling study: configuration size vs elapsed time."""

    label: str
    parallelism: int
    elapsed: int


def speedup_table(points: Sequence[ScalingPoint]) -> str:
    """Speedup/efficiency table relative to the first (baseline) point."""
    if not points:
        return "(no scaling points)"
    base = points[0].elapsed
    rows = []
    for p in points:
        sp = base / p.elapsed if p.elapsed else float("inf")
        eff = sp / p.parallelism if p.parallelism else 0.0
        rows.append([p.label, p.parallelism, p.elapsed,
                     f"{sp:.2f}x", f"{100 * eff:.0f}%"])
    return format_table(["config", "parallelism", "elapsed", "speedup",
                         "efficiency"], rows, title="SCALING")


def load_balance(executed: Dict[int, int]) -> float:
    """Imbalance factor of a per-member work map: max/mean (1.0 = perfect).

    Used to compare PRESCHED and SELFSCHED loop scheduling.
    """
    if not executed:
        return 1.0
    vals = list(executed.values())
    mean = sum(vals) / len(vals)
    return max(vals) / mean if mean else 1.0
