"""``ParallelRunner`` — the backend-agnostic core of the experiment engine.

The runner owns everything that defines a sweep's *outcome*: task
expansion, duplicate-mix validation, store persistence and resume, and the
request-order merge (with the CC(Best) selection rule re-applied).
*How* tasks execute is delegated to an
:class:`~repro.engine.backends.base.ExecutionBackend` — in-process, local
process pool, or socket workers — which only transports chunks and streams
back ``(task, result)`` pairs.  Combined with per-task deterministic
seeding (package docstring) this makes the merged
:class:`~repro.experiments.runner.ComboResult` list bit-identical on any
backend, for any worker count.  It is the only code that simulates
workload mixes: scenarios, the CLI, the service and the ablation and
sensitivity studies all run through it (``jobs=0`` for in-process).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..common.config import SystemConfig
from ..common.errors import EngineError
from ..core.cmp import SimResult
from ..experiments.runner import (
    DEFAULT_SCHEMES,
    ComboResult,
    RunPlan,
    merge_task_results,
    normalize_schemes,
)
from ..workloads.mixes import WorkloadMix
from .backends import ExecutionBackend, InlineBackend, ProcessPoolBackend
from .store import ResultStore
from .tasks import SimTask, estimate_task_cost, expand_mix_tasks

if TYPE_CHECKING:  # the scenario layer imports the engine, not vice versa
    from ..scenario.model import Scenario

__all__ = ["ParallelRunner", "DEFAULT_SCHEMES"]


class ParallelRunner:
    """Fan a sweep's (mix × scheme × CC-probability) grid over a backend.

    Parameters
    ----------
    config, plan:
        Shared by every task (both are small frozen dataclasses; they ship
        to workers by pickling).
    schemes:
        Scheme names as scenarios and the CLI accept them (``"cc_best"``
        triggers the probability sweep).
    jobs:
        Parallelism: sizes the default process-pool backend (``0`` selects
        the inline backend) and hints the chunk splitter.  With an explicit
        *backend* it only keeps its chunk-splitting role.
    backend:
        An :class:`ExecutionBackend` instance (build one from a registry
        name with :func:`~repro.engine.backends.make_backend`), or ``None``
        to derive one from *jobs*.
    store:
        Optional directory for the on-disk sharded result store
        (:mod:`repro.engine.store`).
    resume:
        Skip tasks whose results are already in the store (requires
        *store*).
    trace_cache:
        Shared on-disk trace-cache directory handed to the backend (see
        :mod:`repro.workloads.trace_cache`); ``None`` keeps the per-process
        memo only.  Ignored when *backend* is passed (the instance already
        carries its cache root).
    scenario:
        The :class:`~repro.scenario.model.Scenario` this run realizes, if it
        was described by one.  Its name and content hash are stamped into
        the result-store manifest, so a later ``--resume`` against results
        produced by a *different* scenario fails upfront instead of silently
        merging incomparable result sets.
    progress:
        Optional ``progress(task_id, done, total)`` callback invoked from
        :meth:`run` once per settled task — immediately for each task
        satisfied from the resume store, then after each backend result is
        persisted.  ``done`` counts settled tasks so far and ``total`` is
        the expanded task count, so ``done == total`` on the final call.
        The service layer (:mod:`repro.service`) taps this to journal live
        job progress; a raising callback aborts the sweep (used for
        cooperative cancellation) after the current result is safely in
        the store.
    """

    def __init__(
        self,
        config: SystemConfig,
        plan: RunPlan,
        *,
        schemes: Sequence[str] = DEFAULT_SCHEMES,
        jobs: int = 1,
        store: str | None = None,
        resume: bool = False,
        backend: ExecutionBackend | None = None,
        trace_cache: str | None = None,
        scenario: "Scenario | None" = None,
        progress: Optional[Callable[[str, int, int], None]] = None,
    ) -> None:
        if jobs < 0:
            raise EngineError("jobs must be >= 0 (0 = run tasks in-process)")
        if resume and store is None:
            raise EngineError("--resume requires a result store directory")
        self.config = config
        self.plan = plan
        self.schemes = list(schemes)
        self.jobs = jobs
        if backend is None:
            backend = (
                InlineBackend(trace_cache)
                if jobs == 0
                else ProcessPoolBackend(jobs, trace_cache)
            )
        self.backend: ExecutionBackend = backend
        self.store = ResultStore(store) if store is not None else None
        self.resume = resume
        self.scenario = scenario
        self.progress = progress
        # Filled by run() for reporting (CLI summary line, resume tests).
        self.tasks_total = 0
        self.tasks_resumed = 0
        self.tasks_run = 0
        #: Trace-provisioning counters aggregated across the backend's
        #: workers: ``memo_hits`` / ``cache_hits`` / ``generated``.
        self.trace_stats: Dict[str, int] = dict(self.backend.stats)

    # -- manifest ----------------------------------------------------------

    def _manifest(self) -> dict:
        plan = dataclasses.asdict(self.plan)
        plan["cc_probs"] = list(plan["cc_probs"])
        # The stepping loop never changes results (the conformance
        # contract), so it must not fence off resume: a store written under
        # --sim-core auto is byte-identical to — and resumable by — a
        # reference run of the same scenario.
        plan.pop("sim_core", None)
        manifest = {
            "config": dataclasses.asdict(self.config),
            "plan": plan,
            "schemes": normalize_schemes(self.schemes),
        }
        if self.scenario is not None:
            manifest["scenario"] = {
                "name": self.scenario.name,
                "hash": self.scenario.content_hash(),
            }
        return manifest

    # -- execution ---------------------------------------------------------

    def run(self, mixes: Sequence[WorkloadMix]) -> List[ComboResult]:
        """Simulate every task of *mixes* and merge per-mix combo results."""
        # Results (in memory and on disk) are keyed by task_id, which embeds
        # the mix_id — two mixes sharing an id would silently collide.
        seen_ids = set()
        for mix in mixes:
            if mix.mix_id in seen_ids:
                raise EngineError(
                    f"duplicate mix_id {mix.mix_id!r} in one run: give each "
                    "custom mix a distinct id"
                )
            seen_ids.add(mix.mix_id)
        per_mix_tasks = [
            expand_mix_tasks(mix, self.schemes, self.plan.cc_probs) for mix in mixes
        ]
        tasks = [t for group in per_mix_tasks for t in group]
        self.tasks_total = len(tasks)

        results: Dict[str, SimResult] = {}
        if self.store is not None:
            self.store.initialize(self._manifest())
            if self.resume:
                done = self.store.completed_ids()
                for task in tasks:
                    if task.task_id in done:
                        payload = self.store.load(task.task_id)
                        # task_id alone cannot distinguish two custom mixes
                        # (both are "custom__<scheme>"): verify the stored
                        # task describes the same mix/scheme before reusing.
                        stored_task = payload.get("task", {})
                        current = dataclasses.asdict(task)
                        current["programs"] = list(current["programs"])
                        if stored_task != current:
                            raise EngineError(
                                f"stored result {task.task_id!r} in {self.store.root} "
                                f"was produced by a different task "
                                f"({stored_task.get('programs')} vs {task.programs}); "
                                "use a fresh store directory"
                            )
                        results[task.task_id] = SimResult.from_dict(payload["result"])
        self.tasks_resumed = len(results)

        pending = [t for t in tasks if t.task_id not in results]
        self.tasks_run = len(pending)
        done_count = 0
        try:
            if self.progress is not None:
                for task in tasks:
                    if task.task_id in results:
                        done_count += 1
                        self.progress(task.task_id, done_count, self.tasks_total)
            if pending:
                chunks = self._chunk(pending)
                for task, result in self.backend.submit_chunks(
                    self.config, self.plan, chunks
                ):
                    if self.store is not None:
                        self.store.save(
                            task.task_id,
                            {
                                "task": dataclasses.asdict(task),
                                "result": result.to_dict(),
                            },
                        )
                    results[task.task_id] = result
                    if self.progress is not None:
                        done_count += 1
                        self.progress(task.task_id, done_count, self.tasks_total)
        finally:
            # Release segment handles whether the sweep finished or died;
            # every record is already fsynced, so a crashed run's store
            # resumes cleanly regardless.
            if self.store is not None:
                self.store.close()
        self.trace_stats = dict(self.backend.stats)

        return [
            self._merge_mix(mix, group, results)
            for mix, group in zip(mixes, per_mix_tasks)
        ]

    def _chunk(self, pending: Sequence[SimTask]) -> List[List[SimTask]]:
        """Group pending tasks into contiguous same-mix chunks for the backend.

        One chunk per mix keeps a mix's tasks on one worker (trace-memo
        hits) and cuts transport to one round-trip per mix.  When that would
        leave workers idle — fewer mixes than the parallelism hint — each
        mix's chunk is split into at most ``jobs`` *contiguous* sub-chunks
        with balanced **estimated cost** (scheme weights spread ~2x between
        L2P and SNUG, so an even task *count* is an uneven workload) instead
        of degrading to single-task chunks.  Parallelism and memo locality
        coexist: every sub-chunk still generates (or loads) its mix's traces
        once and amortizes them over its tasks.  Splitting is deterministic
        and order-preserving — it cannot affect the merged output, only how
        evenly workers finish.
        """
        chunks: List[List[SimTask]] = []
        for task in pending:
            if chunks and chunks[-1][0].mix_id == task.mix_id:
                chunks[-1].append(task)
            else:
                chunks.append([task])
        hint = self.jobs
        if hint <= 1 or len(chunks) >= hint:
            return chunks
        split: List[List[SimTask]] = []
        for chunk in chunks:
            split.extend(self._split_by_cost(chunk, hint))
        return split

    def _split_by_cost(
        self, chunk: List[SimTask], parts: int
    ) -> List[List[SimTask]]:
        """Cut one chunk into ≤ *parts* contiguous runs of similar cost.

        Greedy online partition: close the current run once it has claimed
        its proportional share of the cost still unassigned.  Runs are also
        capped at ``ceil(len/parts)`` tasks so cheap tasks can't pile into
        one oversized run — the cap keeps every run's memo-locality win
        while the cost rule decides where the cuts fall within it.  A close
        is allowed only while the tail still fits the remaining budget
        (``tasks_left <= (left_parts - 1) * cap``), which keeps the cap
        invariant over the whole partition; fewer than *parts* runs can
        come out when the cap forces uniformly full runs.
        """
        parts = min(parts, len(chunk))
        if parts <= 1:
            return [chunk]
        cap = -(-len(chunk) // parts)
        costs = [estimate_task_cost(task, self.plan) for task in chunk]
        out: List[List[SimTask]] = []
        run: List[SimTask] = []
        run_cost = 0.0
        left_cost = sum(costs)
        left_parts = parts
        for index, (task, cost) in enumerate(zip(chunk, costs)):
            run.append(task)
            run_cost += cost
            left_cost -= cost
            tasks_left = len(chunk) - index - 1
            if (
                left_parts > 1
                and 1 <= tasks_left <= (left_parts - 1) * cap
                and (
                    len(run) >= cap
                    or run_cost >= (run_cost + left_cost) / left_parts
                )
            ):
                out.append(run)
                run, run_cost = [], 0.0
                left_parts -= 1
        if run:
            out.append(run)
        return out

    # -- merging -----------------------------------------------------------

    def _merge_mix(
        self,
        mix: WorkloadMix,
        mix_tasks: Sequence[SimTask],
        results: Dict[str, SimResult],
    ) -> ComboResult:
        """Assemble one mix's ComboResult in request order (scheduling-free)."""
        return merge_task_results(mix, mix_tasks, results, self.schemes)
