"""Plain-text rendering of tables and figure series.

The benches regenerate every paper artefact as text: an ASCII table per
Table, and per-figure "series" tables whose rows are the x-axis categories
(workload classes / sampling intervals) and whose columns are the legend
entries (schemes / demand buckets).  Keeping the renderer centralized makes
the bench output uniform and testable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "render_table",
    "render_series",
    "render_distribution",
    "render_combo_metrics",
    "format_pct",
]


def format_pct(x: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string (``0.139 -> '13.9%'``)."""
    return f"{100.0 * x:.{digits}f}%"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_fmt: str = "{:.4f}",
) -> str:
    """Render an ASCII table with aligned columns."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float) and not isinstance(cell, bool):
            return float_fmt.format(cell)
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
        out.append("=" * len(sep))
    out.append(line(list(headers)))
    out.append(sep)
    out.extend(line(r) for r in text_rows)
    return "\n".join(out)


def render_series(
    x_labels: Sequence[str],
    series: Mapping[str, Sequence[float]],
    *,
    title: str | None = None,
    x_name: str = "x",
    float_fmt: str = "{:.4f}",
) -> str:
    """Render a figure as a table: one row per x category, one column per legend."""
    headers = [x_name, *series.keys()]
    rows = []
    for i, label in enumerate(x_labels):
        rows.append([label, *(values[i] for values in series.values())])
    return render_table(headers, rows, title=title, float_fmt=float_fmt)


def render_combo_metrics(
    metrics: Mapping[str, Mapping[str, float]],
    *,
    title: str = "Normalized to L2P",
) -> str:
    """Render one combination's Table 5 metrics (scheme rows, metric columns).

    Accepts the ``ComboResult.metrics`` mapping, as the engine merges it
    from per-task results on any backend.
    """
    rows = [
        [name, m["throughput"], m["aws"], m["fs"]]
        for name, m in metrics.items()
    ]
    return render_table(["scheme", "throughput", "aws", "fs"], rows, title=title)


def render_distribution(
    sizes: np.ndarray,
    bucket_labels: Sequence[str],
    *,
    title: str | None = None,
    max_rows: int = 25,
) -> str:
    """Render a Figures 1–3 style stacked distribution as a sampled table.

    ``sizes`` is the ``(intervals, M)`` matrix; the output shows up to
    *max_rows* evenly spaced interval rows as percentages.
    """
    n = sizes.shape[0]
    if n <= max_rows:
        picks = np.arange(n)
    else:
        picks = np.unique(np.linspace(0, n - 1, max_rows).astype(int))
    headers = ["interval", *bucket_labels]
    rows = []
    for i in picks:
        rows.append([str(i + 1), *(format_pct(v) for v in sizes[i])])
    return render_table(headers, rows, title=title)
