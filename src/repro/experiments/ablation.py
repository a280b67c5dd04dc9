"""Ablation studies on SNUG's design choices (rows of ``docs/paper_map.md``).

Three studies, each varying one knob the paper fixes:

* **index-bit flipping** (Section 3.2) — with flipping disabled, grouping is
  restricted to same-index peers; on the C1 stress tests (identical
  programs => identical G/T vectors) this removes nearly all spill targets,
  isolating the contribution of the paper's key grouping idea.
* **epoch lengths** (Section 3.4) — the 5 M / 100 M-cycle split is a
  sampling-overhead vs. adaptivity trade-off.
* **p threshold** (Section 3.1.2) — the 1/p hit-rate-gain bar a set must
  clear to be a taker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from ..analysis.metrics import geometric_mean
from ..common.config import SystemConfig
from ..engine.runner import ParallelRunner
from ..workloads.mixes import WorkloadMix, mixes_in_class
from .runner import RunPlan

__all__ = [
    "AblationPoint",
    "ablate_flipping",
    "ablate_epochs",
    "ablate_p_threshold",
    "throughput_vs_l2p",
]


@dataclass
class AblationPoint:
    """One configuration's aggregate normalized throughput."""

    label: str
    throughput_vs_l2p: float


def throughput_vs_l2p(
    config: SystemConfig,
    plan: RunPlan,
    mixes: Sequence[WorkloadMix],
    schemes: Sequence[str],
) -> List[Dict[str, float]]:
    """Per mix, each scheme's throughput normalized to L2P on the same traces.

    One in-process engine run of L2P and *schemes* over *mixes*.
    """
    runner = ParallelRunner(config, plan, schemes=("l2p", *schemes), jobs=0)
    return [
        {name: combo.metrics[name]["throughput"] for name in schemes}
        for combo in runner.run(mixes)
    ]


def _snug_vs_l2p(
    config: SystemConfig, mixes: Sequence[WorkloadMix], plan: RunPlan
) -> float:
    """Geomean normalized SNUG throughput over the given mixes."""
    return geometric_mean(
        [row["snug"] for row in throughput_vs_l2p(config, plan, mixes, ("snug",))]
    )


def ablate_flipping(
    config: SystemConfig,
    plan: RunPlan,
    mix_class: str = "C1",
    combos: int | None = None,
) -> List[AblationPoint]:
    """SNUG with and without the index-bit flipping grouper."""
    mixes = mixes_in_class(mix_class)[: combos or None]
    points = []
    for flip in (True, False):
        cfg = config.with_(snug=replace(config.snug, flip_enabled=flip))
        points.append(
            AblationPoint(
                label=f"flip={'on' if flip else 'off'}",
                throughput_vs_l2p=_snug_vs_l2p(cfg, mixes, plan),
            )
        )
    return points


def ablate_epochs(
    config: SystemConfig,
    plan: RunPlan,
    scale_factors: Sequence[float] = (0.25, 1.0, 4.0),
    mix_class: str = "C3",
    combos: int | None = None,
) -> List[AblationPoint]:
    """Scale both Stage I and Stage II lengths by the given factors."""
    mixes = mixes_in_class(mix_class)[: combos or None]
    points = []
    for factor in scale_factors:
        snug = replace(
            config.snug,
            identify_cycles=max(1, int(config.snug.identify_cycles * factor)),
            group_cycles=max(1, int(config.snug.group_cycles * factor)),
        )
        cfg = config.with_(snug=snug)
        points.append(
            AblationPoint(
                label=f"epochs x{factor:g}",
                throughput_vs_l2p=_snug_vs_l2p(cfg, mixes, plan),
            )
        )
    return points


def ablate_p_threshold(
    config: SystemConfig,
    plan: RunPlan,
    p_values: Sequence[int] = (2, 8, 32),
    mix_class: str = "C1",
    combos: int | None = None,
) -> List[AblationPoint]:
    """Vary the 1/p taker-qualification bar."""
    mixes = mixes_in_class(mix_class)[: combos or None]
    points = []
    for p in p_values:
        cfg = config.with_(snug=replace(config.snug, p_threshold=p))
        points.append(
            AblationPoint(
                label=f"p={p}",
                throughput_vs_l2p=_snug_vs_l2p(cfg, mixes, plan),
            )
        )
    return points


def render_ablation(points: List[AblationPoint], title: str) -> str:
    """Simple text rendering of an ablation sweep."""
    from ..analysis.report import render_table

    return render_table(
        ["configuration", "throughput vs L2P"],
        [[p.label, p.throughput_vs_l2p] for p in points],
        title=title,
    )
