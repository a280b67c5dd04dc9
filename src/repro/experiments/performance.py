"""Section 5 performance experiments: Figures 9, 10 and 11.

For every Table 8 combination the five schemes are simulated on identical
traces (one :class:`~repro.engine.runner.ParallelRunner` run over the mixes
:func:`select_mixes` lists); per-class numbers are geometric means over the
class's combinations (the paper's aggregation), and ``AVG`` is the geometric
mean over all six classes.  One :class:`FigureData` over that run's combo
results therefore holds the complete data behind all three figures — they
differ only in which Table 5 metric is plotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..analysis.metrics import geometric_mean
from ..analysis.report import render_series
from ..workloads.mixes import WorkloadMix, mix_classes, mixes_in_class
from .runner import ComboResult

__all__ = [
    "FigureData",
    "select_mixes",
    "figure_series",
    "render_figure",
]

#: Legend order of Figures 9-11 (L2P is the implicit 1.0 baseline).
FIGURE_SCHEMES: tuple[str, ...] = ("l2s", "cc_best", "dsr", "snug")


@dataclass
class FigureData:
    """All combination results, organized for Figures 9–11."""

    combos: List[ComboResult] = field(default_factory=list)

    def class_metric(self, mix_class: str, scheme: str, metric: str) -> float:
        """Geometric mean of one metric over a class's combinations."""
        values = [
            c.metrics[scheme][metric] for c in self.combos if c.mix_class == mix_class
        ]
        if not values:
            raise KeyError(f"no results for class {mix_class!r}")
        return geometric_mean(values)

    def average_metric(self, scheme: str, metric: str) -> float:
        """The figures' AVG bar: geometric mean over the six class means."""
        return geometric_mean(
            [self.class_metric(c, scheme, metric) for c in self._classes()]
        )

    def _classes(self) -> List[str]:
        seen: List[str] = []
        for combo in self.combos:
            if combo.mix_class not in seen:
                seen.append(combo.mix_class)
        return seen


def select_mixes(
    classes: Sequence[str] | None = None,
    combos_per_class: int | None = None,
) -> List[WorkloadMix]:
    """The Table 8 combinations of a (possibly trimmed) sweep, in figure order.

    ``combos_per_class`` limits each class to its first *k* combinations for
    quick runs; ``None`` keeps them all.  Scenario class sweeps
    (:class:`~repro.scenario.workload.WorkloadSpec`) resolve through it.
    """
    out = []
    for mix_class in classes or mix_classes():
        mixes = mixes_in_class(mix_class)
        if combos_per_class is not None:
            mixes = mixes[:combos_per_class]
        out.extend(mixes)
    return out


def figure_series(data: FigureData, metric: str) -> tuple[List[str], Dict[str, List[float]]]:
    """X labels (classes + AVG) and per-scheme series for one figure."""
    classes = data._classes()
    labels = [*classes, "AVG"]
    series: Dict[str, List[float]] = {}
    for scheme in FIGURE_SCHEMES:
        if not all(scheme in c.metrics for c in data.combos):
            continue
        values = [data.class_metric(c, scheme, metric) for c in classes]
        values.append(data.average_metric(scheme, metric))
        series[scheme] = values
    return labels, series


_METRIC_TITLES = {
    "throughput": "Figure 9: Throughput normalized to L2P",
    "aws": "Figure 10: Average Weighted Speedup",
    "fs": "Figure 11: Fair Speedup",
}


def render_figure(data: FigureData, metric: str) -> str:
    """Render one of Figures 9–11 as a series table."""
    labels, series = figure_series(data, metric)
    return render_series(
        labels,
        series,
        title=_METRIC_TITLES.get(metric, metric),
        x_name="class",
    )
