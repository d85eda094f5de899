"""Table/series formatting and paper-vs-measured comparison helpers."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "format_table",
    "format_series",
    "rank_samplers",
    "shape_report",
]


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    *,
    title: Optional[str] = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render rows of dicts as an aligned plain-text table."""
    if not columns:
        raise ValueError("columns must not be empty")

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    header = [str(c) for c in columns]
    body = [[render(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_series(
    x: Iterable[object],
    series: Mapping[str, Sequence[float]],
    *,
    x_label: str = "x",
    title: Optional[str] = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render named series against a shared x-axis as a table."""
    x_values = list(x)
    rows = []
    for i, x_value in enumerate(x_values):
        row: Dict[str, object] = {x_label: x_value}
        for name, values in series.items():
            row[name] = float(values[i])
        rows.append(row)
    return format_table(
        rows, [x_label, *series.keys()], title=title, float_format=float_format
    )


def rank_samplers(
    metrics_by_sampler: Mapping[str, Mapping[str, float]], metric: str
) -> List[Tuple[str, float]]:
    """Samplers sorted best-first on one metric."""
    pairs = [
        (name, float(metrics[metric])) for name, metrics in metrics_by_sampler.items()
    ]
    return sorted(pairs, key=lambda pair: -pair[1])


def shape_report(
    metrics_by_sampler: Mapping[str, Mapping[str, float]],
    metric: str,
    expectations: Sequence[Tuple[str, str]],
) -> List[str]:
    """Check pairwise expectations like ``("bns", "rns")`` meaning bns ≥ rns.

    Returns human-readable PASS/FAIL lines — the "shape" validation the
    table artifacts report (absolute values are substrate-dependent;
    orderings are the reproducible claim).
    """
    lines = []
    for better, worse in expectations:
        if better not in metrics_by_sampler or worse not in metrics_by_sampler:
            lines.append(f"[SKIP] {metric}: {better} >= {worse} (not measured)")
            continue
        left = float(metrics_by_sampler[better][metric])
        right = float(metrics_by_sampler[worse][metric])
        status = "PASS" if left >= right else "FAIL"
        lines.append(
            f"[{status}] {metric}: {better} ({left:.4f}) >= {worse} ({right:.4f})"
        )
    return lines
