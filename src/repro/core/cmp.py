"""The CMP system: event-ordered co-execution of trace cores over one scheme.

Cores are advanced in global-time order with a binary heap keyed on each
core's next issue time, so every scheme observes a globally nondecreasing
clock — required for SNUG's stage machinery and for bus/DRAM occupancy
modelling.  The run ends when every core has executed its target instruction
count; cores that reach the target early *keep running* (their cache
pressure must not vanish), but their IPC is measured at the crossing point,
exactly like the paper's fixed-window methodology.

One system, two executions
--------------------------
:meth:`CmpSystem.run` is the executable spec's event loop, stepping the
system's own :class:`~repro.core.cpu.TraceCore` s through the scheme's
``access()``.  :class:`~repro.core.compiled.CompiledCmpSystem` steps the
same system in the C kernel, or falls back to this loop through
``super().run()`` for a system the kernel declines, so a declined run is
the spec itself, on the same cores.  Both executions start with
:meth:`CmpSystem._start_run` (sizing checks, the refusal of a system that
has already run, each core's measurement window and the event budget)
and end with :meth:`CmpSystem._finish_run` (``finalize`` and the
:class:`SimResult`).  The golden snapshots
(``tests/integration/test_golden_schemes.py``), the conformance suite
(``tests/integration/test_batch_conformance.py``) and the differential
property test (``tests/property/test_cpu_properties.py``) hold the kernel
to this loop at the :class:`SimResult` level, bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..common.config import SystemConfig
from ..common.errors import SimulationError
from ..schemes.base import L2Scheme, Outcome
from ..workloads.trace import Trace
from .cpu import TraceCore

__all__ = ["CmpSystem", "SimResult", "budget_exhausted_error"]


def budget_exhausted_error(budget: int, cores, finish_at: int) -> SimulationError:
    """The "event budget exhausted" error, with per-core progress attached.

    Shared by both executions so a stalled run is diagnosable from the
    message alone: which cores are short of the target, by how much, and
    how many times each has wrapped its trace.
    """
    progress = "; ".join(
        f"core {core.core_id}: {core.instructions}/{finish_at} instructions, "
        f"{core.wraps} wraps"
        for core in cores
    )
    return SimulationError(
        f"event budget exhausted ({budget}); a core appears unable to reach "
        f"its instruction target [{progress}]"
    )


@dataclass
class SimResult:
    """Outcome of one co-scheduled simulation."""

    scheme: str
    ipc: List[float]
    instructions: List[int]
    cycles: List[int]
    accesses: List[int]
    outcome_counts: Dict[str, int]
    stats: Dict[str, int] = field(default_factory=dict)
    #: Per-core outcome mix *within the measurement window* (until each
    #: core crossed its instruction target) — unlike ``stats``, these are
    #: not diluted by the post-target wrap-around co-run.
    window_outcomes: List[Dict[str, int]] = field(default_factory=list)
    #: Sum of L2-and-below latency cycles within the window, per core.
    window_latency: List[int] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Sum of per-core IPCs (Table 5)."""
        return float(sum(self.ipc))

    def summary(self) -> str:
        cores = " ".join(f"{x:.4f}" for x in self.ipc)
        return f"{self.scheme}: throughput={self.throughput:.4f} ipc=[{cores}]"

    # -- serialization (engine result store) -------------------------------

    def to_dict(self) -> dict:
        """A JSON-native representation that round-trips bit-identically.

        Every field is a plain int, float, str or container thereof; JSON
        float serialization uses ``repr`` (shortest round-trip form), so a
        dump/load cycle reproduces the exact same IEEE-754 doubles.
        """
        return {
            "scheme": self.scheme,
            "ipc": list(self.ipc),
            "instructions": list(self.instructions),
            "cycles": list(self.cycles),
            "accesses": list(self.accesses),
            "outcome_counts": dict(self.outcome_counts),
            "stats": dict(self.stats),
            "window_outcomes": [dict(w) for w in self.window_outcomes],
            "window_latency": list(self.window_latency),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            scheme=data["scheme"],
            ipc=list(data["ipc"]),
            instructions=list(data["instructions"]),
            cycles=list(data["cycles"]),
            accesses=list(data["accesses"]),
            outcome_counts=dict(data["outcome_counts"]),
            stats=dict(data["stats"]),
            window_outcomes=[dict(w) for w in data["window_outcomes"]],
            window_latency=list(data["window_latency"]),
        )


class CmpSystem:
    """Quad-core (or any power-of-two) CMP bound to one L2 scheme.

    :meth:`run` is the executable spec's event loop.  The production system
    is the :class:`~repro.core.compiled.CompiledCmpSystem` subclass, which
    :func:`~repro.experiments.runner.make_system` (``auto``) and
    :func:`~repro.experiments.runner.run_traces` build: it steps this same
    system in the C kernel, or runs this loop for a system the kernel
    declines.  A system runs once.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: L2Scheme,
        traces: Sequence[Trace],
    ) -> None:
        if len(traces) != config.num_cores:
            raise SimulationError(
                f"{config.num_cores} cores but {len(traces)} traces supplied"
            )
        self.config = config
        self.scheme = scheme
        self.cores = [
            TraceCore(
                i,
                trace,
                base_cpi=config.base_cpi,
                l1_latency=config.latency.l1_hit,
            )
            for i, trace in enumerate(traces)
        ]

    def _refuse_second_run(self) -> None:
        """Raise :class:`SimulationError` if any core has stepped: a system
        runs once.

        A second run would reopen the windows over state that carries on
        from the first — the cores' clocks and cursors, the write buffers,
        DRAM and bus times, the SNUG stage ends — so both executions refuse
        it first, before any access and before the compiled dispatch reads
        the warm scheme.
        """
        for core in self.cores:
            if core.accesses:
                raise SimulationError(
                    f"this system has already run (core {core.core_id} has "
                    f"stepped {core.accesses} accesses); a CmpSystem runs "
                    "once, so build a new one for each run"
                )

    def _start_run(
        self,
        target_instructions: int,
        warmup_instructions: int,
        max_events: int | None,
    ) -> int:
        """Refuse a second run, check the run sizing, open every core's
        measurement window, and return the event budget — the preamble of
        both loops."""
        self._refuse_second_run()
        if target_instructions < 1:
            raise SimulationError("target_instructions must be positive")
        if warmup_instructions < 0:
            raise SimulationError("warmup_instructions must be non-negative")
        for core in self.cores:
            core.target_instructions = target_instructions
            core.warmup_instructions = warmup_instructions
            if warmup_instructions == 0:
                core.warmup_end_time = 0
        budget = max_events if max_events is not None else 0
        if budget <= 0:
            # Worst case CPI ~ DRAM latency per access; bound generously.
            # Trace.mean_gap is cached on the trace, so repeated runs over
            # the same traces skip the NumPy reduction.
            mean_gap = max(1.0, float(min(c.trace.mean_gap for c in self.cores)))
            total = target_instructions + warmup_instructions
            budget = int(len(self.cores) * total / mean_gap * 50) + 10_000
        return budget

    def _finish_run(
        self,
        outcome_counts: Dict[str, int],
        window_outcomes: List[Dict[str, int]],
        window_latency: List[int],
    ) -> SimResult:
        """Finalize the scheme at the latest core time and assemble the
        run's :class:`SimResult` — the result step of both loops."""
        final_now = max(core.time for core in self.cores)
        self.scheme.finalize(final_now)
        return SimResult(
            scheme=self.scheme.name,
            ipc=[core.ipc() for core in self.cores],
            instructions=[core.instructions for core in self.cores],
            cycles=[core.finish_time or core.time for core in self.cores],
            accesses=[core.accesses for core in self.cores],
            outcome_counts=outcome_counts,
            stats=self.scheme.flat_stats(),
            window_outcomes=window_outcomes,
            window_latency=window_latency,
        )

    def run(
        self,
        target_instructions: int,
        *,
        warmup_instructions: int = 0,
        max_events: int | None = None,
    ) -> SimResult:
        """Co-execute until every core retires warmup + *target_instructions*.

        Parameters
        ----------
        target_instructions:
            Measurement window per core, in instructions.
        warmup_instructions:
            Instructions executed (and simulated, warming caches, monitors
            and duels) before the measurement window opens — the analogue of
            the paper's 6 B-cycle fast-forward before its 3 B-cycle window.
        max_events:
            Safety valve on total processed accesses (defaults to a generous
            multiple of the expected access count).

        This is the seed loop, method dispatch and all: one scheme
        ``access()`` per event, the cores stepped through
        :meth:`TraceCore.next_access` and :meth:`TraceCore.complete`.
        """
        budget = self._start_run(
            target_instructions, warmup_instructions, max_events
        )
        outcome_counts = {o.value: 0 for o in Outcome}
        window_outcomes = [{o.value: 0 for o in Outcome} for _ in self.cores]
        window_latency = [0 for _ in self.cores]
        heap: List[tuple[int, int]] = [
            (core.peek_issue_time(), core.core_id) for core in self.cores
        ]
        heapq.heapify(heap)
        remaining = len(self.cores)

        events = 0
        while remaining and heap:
            events += 1
            if events > budget:
                raise budget_exhausted_error(
                    budget, self.cores, warmup_instructions + target_instructions
                )
            _, cid = heapq.heappop(heap)
            core = self.cores[cid]
            was_done = core.done
            issue, addr, write = core.next_access()
            result = self.scheme.access(cid, addr, write, issue)
            outcome_counts[result.outcome.value] += 1
            if core.warmed_up and not was_done:
                window_outcomes[cid][result.outcome.value] += 1
                window_latency[cid] += result.latency
            core.complete(issue, result.latency)
            if core.done and not was_done:
                remaining -= 1
            if remaining:
                heapq.heappush(heap, (core.peek_issue_time(), cid))

        return self._finish_run(outcome_counts, window_outcomes, window_latency)
