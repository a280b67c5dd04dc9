"""Simulation runner: the per-combination recipe's building blocks.

The paper's per-combination methodology (Table 8 mixes, Figures 9-11) runs
through :class:`~repro.engine.runner.ParallelRunner`, which is built from
the pieces defined here:

* :class:`RunPlan` — the sizing every task of a run shares;
* :func:`run_traces` — one scheme over a mix's four core-rebased traces;
* :func:`normalize_schemes` — L2P is always simulated, since every metric is
  normalized to it, so candidate schemes run on *identical* traces;
* :func:`select_cc_best` — CC swept over the spill probabilities, keeping
  the best throughput: the paper's **CC(Best)**;
* :func:`merge_task_results` — per-scheme
  :class:`~repro.core.cmp.SimResult` s plus the derived Table 5 metrics, as
  one :class:`ComboResult` per mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..analysis.metrics import average_weighted_speedup, fair_speedup, normalized_throughput
from ..common.config import SystemConfig
from ..common.errors import ConfigError, EngineError
from ..core.cmp import CmpSystem, SimResult
from ..core.compiled import CompiledCmpSystem
from ..schemes.factory import make_scheme
from ..workloads.mixes import WorkloadMix
from ..workloads.trace import Trace

__all__ = [
    "RunPlan",
    "SIM_CORES",
    "ComboResult",
    "make_system",
    "run_traces",
    "select_cc_best",
    "merge_task_results",
    "normalize_schemes",
    "CC_PROBS_FULL",
    "CC_PROBS_FAST",
    "DEFAULT_SCHEMES",
]

#: The paper's five-scheme comparison (Figures 9-11) — the single source of
#: truth for every default scheme list (engine, scenarios, CLI).
DEFAULT_SCHEMES: tuple[str, ...] = ("l2p", "l2s", "cc_best", "dsr", "snug")

#: The paper's CC(Best) sweep.
CC_PROBS_FULL: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Reduced sweep for quick runs (endpoints + middle).
CC_PROBS_FAST: tuple[float, ...] = (0.0, 0.5, 1.0)


#: The selectable simulation cores (see :mod:`repro.core`): ``auto`` is
#: the production system, which runs each system on the native C kernel or,
#: for systems the kernel declines, on the reference loop (deciding per
#: run, see :mod:`repro.core.compiled`); ``reference`` is that loop, the
#: executable spec the kernel is held bit-identical to, for every run.
SIM_CORES: tuple[str, ...] = ("auto", "reference")


@dataclass(frozen=True)
class RunPlan:
    """Sizing of one simulation run.

    ``snug_monitor`` selects SNUG's online demand-monitor path: SNUG-family
    tasks attach an :class:`~repro.schemes.snug.OnlineDemandMonitor` so G/T
    classification comes from a streaming stack-distance profile of the
    observed reference stream instead of the hardware counters.  The flag
    lives on the plan (not the CLI or backend) so it ships to every
    execution backend's workers with the rest of the run sizing.

    ``sim_core`` selects the stepping loop (one of :data:`SIM_CORES`).
    All cores are bit-identical at the :class:`~repro.core.cmp.SimResult` level
    (the conformance contract), so the choice never changes results — it
    lives on the plan only so it ships to every backend's workers, and is
    excluded from the scenario content hash and the store manifest.

    ``max_events`` caps the total processed accesses before the run aborts
    with a budget-exhausted :class:`~repro.common.errors.SimulationError`
    (``None`` keeps the generous built-in default).  Unlike ``sim_core``
    this is part of the experiment contract: a tighter valve can abort runs
    the default would finish.
    """

    n_accesses: int = 40_000
    target_instructions: int = 600_000
    warmup_instructions: int = 400_000
    seed: int = 0
    cc_probs: Sequence[float] = CC_PROBS_FAST
    snug_monitor: bool = False
    sim_core: str = "auto"
    max_events: int | None = None

    def __post_init__(self) -> None:
        if self.n_accesses < 1 or self.target_instructions < 1:
            raise ValueError("run plan sizes must be positive")
        if self.warmup_instructions < 0:
            raise ValueError("warmup must be non-negative")
        if self.sim_core not in SIM_CORES:
            raise ValueError(
                f"sim_core must be one of {', '.join(SIM_CORES)}; "
                f"got {self.sim_core!r}"
            )
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("max_events must be positive (or None for the default)")


@dataclass
class ComboResult:
    """All schemes' results for one workload combination."""

    mix_id: str
    mix_class: str
    results: Dict[str, SimResult]
    cc_best_prob: float | None = None
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def compute_metrics(self, baseline: str = "l2p") -> None:
        """Fill ``metrics[scheme] = {throughput, aws, fs}`` vs *baseline*."""
        base = self.results[baseline].ipc
        for name, res in self.results.items():
            self.metrics[name] = {
                "throughput": normalized_throughput(res.ipc, base),
                "aws": average_weighted_speedup(res.ipc, base),
                "fs": fair_speedup(res.ipc, base),
            }


def make_system(sim_core: str, config: SystemConfig, scheme, traces) -> CmpSystem:
    """Instantiate the requested stepping loop over *scheme* and *traces*.

    ``auto`` always builds :class:`~repro.core.compiled.CompiledCmpSystem`,
    whose ``run`` picks the kernel or the reference loop for each run;
    ``reference`` builds its base class, :class:`CmpSystem`, whose ``run``
    is that loop.
    """
    if sim_core == "auto":
        return CompiledCmpSystem(config, scheme, traces)
    if sim_core == "reference":
        return CmpSystem(config, scheme, traces)
    raise ConfigError(
        f"unknown sim_core {sim_core!r}; known: {', '.join(SIM_CORES)}"
    )


def run_traces(
    scheme_name: str,
    config: SystemConfig,
    traces: Sequence[Trace],
    target_instructions: int,
    warmup_instructions: int = 0,
    *,
    snug_monitor: bool = False,
    sim_core: str = "auto",
    max_events: int | None = None,
    **scheme_kwargs,
) -> SimResult:
    """Run one scheme over prepared traces (optionally with cache warmup).

    ``snug_monitor=True`` attaches an
    :class:`~repro.schemes.snug.OnlineDemandMonitor` shaped for *config* —
    only meaningful for schemes exposing ``attach_monitor`` (the SNUG
    family); requesting it for any other scheme is a configuration error.

    ``sim_core`` picks the stepping loop (:func:`make_system`) and
    ``max_events`` overrides the event-budget safety valve — both normally
    arrive via the :class:`RunPlan` fields of the same names.
    """
    scheme = make_scheme(scheme_name, config, **scheme_kwargs)
    if snug_monitor:
        if not hasattr(scheme, "attach_monitor"):
            raise ConfigError(
                f"scheme {scheme_name!r} has no online demand-monitor support"
            )
        from ..schemes.snug import OnlineDemandMonitor

        scheme.attach_monitor(OnlineDemandMonitor.from_config(config))
    system = make_system(sim_core, config, scheme, list(traces))
    return system.run(
        target_instructions,
        warmup_instructions=warmup_instructions,
        max_events=max_events,
    )


def select_cc_best(results_by_prob: Iterable[Tuple[float, SimResult]]) -> tuple[SimResult, float]:
    """Pick CC(Best) from per-probability results: first strict throughput max.

    This is the selection rule of the engine's merge step
    (:func:`merge_task_results`) — ties resolve to the earliest probability
    in iteration order, so every backend picks the identical winner.  The
    chosen result is relabelled ``"cc_best"`` in place.
    """
    best: SimResult | None = None
    best_prob = 0.0
    for prob, res in results_by_prob:
        if best is None or res.throughput > best.throughput:
            best, best_prob = res, prob
    if best is None:
        raise ValueError("select_cc_best needs at least one result")
    best.scheme = "cc_best"
    return best, best_prob


def normalize_schemes(schemes: Sequence[str]) -> List[str]:
    """The scheme list actually simulated: L2P always present (and first).

    Metrics are normalized to L2P, so every run needs the baseline; keeping
    the insertion rule in one helper keeps the engine's task expansion and
    its merge step in lockstep.
    """
    wanted = list(schemes)
    if "l2p" not in wanted:
        wanted.insert(0, "l2p")
    return wanted


def merge_task_results(
    mix: WorkloadMix,
    mix_tasks: Sequence,
    results: Dict[str, SimResult],
    schemes: Sequence[str],
) -> ComboResult:
    """Assemble one mix's :class:`ComboResult` from per-task results.

    *mix_tasks* are the mix's expanded :class:`~repro.engine.tasks.SimTask`
    objects and *results* maps ``task_id`` to the finished
    :class:`SimResult`.  The walk follows the *request* order of *schemes*
    and re-applies :func:`select_cc_best` over the per-probability CC
    results, so the assembly is independent of execution order and the same
    whichever backend ran the tasks.
    """
    plain = {t.scheme: t for t in mix_tasks if t.cc_prob is None}
    merged: Dict[str, SimResult] = {}
    cc_best_prob: float | None = None
    cc_pairs = [
        (t.cc_prob, results[t.task_id])
        for t in mix_tasks
        if t.scheme == "cc" and t.cc_prob is not None
    ]
    for name in normalize_schemes(schemes):
        if name == "cc_best":
            best, cc_best_prob = select_cc_best(cc_pairs)
            merged["cc_best"] = best
        else:
            if name not in plain:  # pragma: no cover - defensive
                raise EngineError(f"missing task for scheme {name!r} during merge")
            merged[name] = results[plain[name].task_id]
    combo = ComboResult(
        mix_id=mix.mix_id,
        mix_class=mix.mix_class,
        results=merged,
        cc_best_prob=cc_best_prob,
    )
    combo.compute_metrics()
    return combo

