"""Experiment entry points, one per table/figure of the paper.

``docs/paper_map.md`` maps each to its figure and benchmark.
"""

from .ablation import (
    AblationPoint,
    ablate_epochs,
    ablate_flipping,
    ablate_p_threshold,
    render_ablation,
)
from .characterization import (
    SurveyRow,
    figure_distribution,
    non_uniform_names,
    render_figure as render_characterization_figure,
    render_survey,
    survey_26,
)
from .performance import (
    FIGURE_SCHEMES,
    FigureData,
    evaluate_all,
    evaluate_class,
    figure_series,
    render_figure,
)
from .sensitivity import sweep_remote_latency, toggle_bus_contention
from .runner import (
    CC_PROBS_FAST,
    CC_PROBS_FULL,
    ComboResult,
    RunPlan,
    run_cc_best,
    run_combo,
    run_traces,
)

__all__ = [
    "AblationPoint",
    "ablate_epochs",
    "ablate_flipping",
    "ablate_p_threshold",
    "render_ablation",
    "SurveyRow",
    "figure_distribution",
    "non_uniform_names",
    "render_characterization_figure",
    "render_survey",
    "survey_26",
    "FIGURE_SCHEMES",
    "FigureData",
    "evaluate_all",
    "evaluate_class",
    "figure_series",
    "render_figure",
    "CC_PROBS_FAST",
    "CC_PROBS_FULL",
    "ComboResult",
    "RunPlan",
    "run_cc_best",
    "run_combo",
    "run_traces",
    "sweep_remote_latency",
    "toggle_bus_contention",
]
