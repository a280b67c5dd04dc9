"""The engine's unit of work: one scheme over one workload mix.

A :class:`SimTask` is a frozen, picklable value object carrying everything a
worker needs *besides* the shared ``(config, plan)`` pair.  The mix is
embedded by value (id, class, program names) rather than looked up in the
Table 8 registry so custom mixes (``repro run --programs ...``) parallelize
exactly like registered ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

from ..experiments.runner import normalize_schemes
from ..workloads.mixes import WorkloadMix

if TYPE_CHECKING:
    from ..experiments.runner import RunPlan

__all__ = [
    "SimTask",
    "expand_mix_tasks",
    "SCHEME_COST_WEIGHTS",
    "estimate_task_cost",
    "estimate_chunk_cost",
]


@dataclass(frozen=True)
class SimTask:
    """One simulation: a factory scheme name bound to one mix.

    ``scheme`` is the *factory* name (``"cc"``, not ``"cc_best"`` — the
    CC(Best) sweep is expanded into one task per probability, carried in
    ``cc_prob``).
    """

    mix_id: str
    mix_class: str
    programs: Tuple[str, ...]
    scheme: str
    cc_prob: float | None = None

    @property
    def task_id(self) -> str:
        """Stable file-system-safe identifier, unique within one run plan."""
        if self.cc_prob is None:
            return f"{self.mix_id}__{self.scheme}"
        return f"{self.mix_id}__{self.scheme}__p{int(round(self.cc_prob * 100)):03d}"

    @property
    def mix(self) -> WorkloadMix:
        """Reconstruct the mix value object (validates program names)."""
        return WorkloadMix(
            mix_id=self.mix_id, mix_class=self.mix_class, programs=self.programs
        )


#: Relative per-access simulation weight of each factory scheme, measured
#: against the L2P baseline at small scale.  These are *scheduling hints*,
#: not a performance contract: they only order and pack chunks (LPT — the
#: costliest work starts first), so a stale weight costs wall-clock, never
#: correctness.  SNUG pays for its shadow sets and epoch relabelling; DSR
#: for spill bookkeeping; CC sits between.
SCHEME_COST_WEIGHTS = {
    "l2p": 1.0,
    "l2s": 1.1,
    "cc": 1.25,
    "dsr": 1.4,
    "snug": 1.8,
    "snug_intra": 1.8,
}

#: Weight for schemes not in the table (new schemes schedule mid-pack).
DEFAULT_SCHEME_WEIGHT = 1.3


def estimate_task_cost(task: SimTask, plan: "RunPlan") -> float:
    """Estimated relative cost of one task: mix size x scheme x trace length.

    The three factors the sweep grid actually varies: a four-program mix
    simulates four traces, trace length scales with ``plan.n_accesses``, and
    the scheme weight captures the per-access overhead spread between
    schemes.  Units are arbitrary — only ratios matter to the scheduler.
    """
    weight = SCHEME_COST_WEIGHTS.get(task.scheme, DEFAULT_SCHEME_WEIGHT)
    return len(task.programs) * weight * plan.n_accesses


def estimate_chunk_cost(tasks: Iterable[SimTask], plan: "RunPlan") -> float:
    """Summed :func:`estimate_task_cost` of a chunk's tasks."""
    return sum(estimate_task_cost(task, plan) for task in tasks)


def expand_mix_tasks(
    mix: WorkloadMix,
    schemes: Sequence[str],
    cc_probs: Sequence[float],
) -> List[SimTask]:
    """All tasks for one mix: the simulations behind one combo result.

    ``l2p`` is forced in (metrics baseline) and ``cc_best`` expands to one
    ``cc`` task per probability in *cc_probs*, which
    :func:`repro.experiments.runner.merge_task_results` folds back into one
    CC(Best) result.
    """

    def task(scheme: str, prob: float | None = None) -> SimTask:
        return SimTask(
            mix_id=mix.mix_id,
            mix_class=mix.mix_class,
            programs=mix.programs,
            scheme=scheme,
            cc_prob=prob,
        )

    tasks: List[SimTask] = []
    for name in normalize_schemes(schemes):
        if name == "cc_best":
            tasks.extend(task("cc", prob) for prob in cc_probs)
        else:
            tasks.append(task(name))
    return tasks
