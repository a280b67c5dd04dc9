"""The CMP system: event-ordered co-execution of trace cores over one scheme.

Cores are advanced in global-time order with a binary heap keyed on each
core's next issue time, so every scheme observes a globally nondecreasing
clock — required for SNUG's stage machinery and for bus/DRAM occupancy
modelling.  The run ends when every core has executed its target instruction
count; cores that reach the target early *keep running* (their cache
pressure must not vanish), but their IPC is measured at the crossing point,
exactly like the paper's fixed-window methodology.

One Python loop
---------------
:meth:`CmpSystem.run` runs the executable spec,
:class:`~repro.core.reference.ReferenceCmpSystem`, over the system's
scheme and traces: it is the loop behind every system the compiled kernel
declines (:class:`~repro.core.compiled.CompiledCmpSystem` falls back to it
through ``super().run()``), so a declined run is the spec itself.  The
kernel's run preamble — sizing checks, each core's measurement window and
the event budget — is :meth:`CmpSystem._start_run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..common.config import SystemConfig
from ..common.errors import SimulationError
from ..schemes.base import L2Scheme
from ..workloads.trace import Trace
from .cpu import TraceCore

__all__ = ["CmpSystem", "SimResult", "budget_exhausted_error"]


def budget_exhausted_error(budget: int, cores, finish_at: int) -> SimulationError:
    """The "event budget exhausted" error, with per-core progress attached.

    Shared by every core (reference included) so a stalled run is diagnosable
    from the message alone: which cores are short of the target, by how
    much, and how many times each has wrapped its trace.
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
        """Inverse of :meth:`to_dict`.

        ``window_outcomes``/``window_latency`` arrived with the windowed
        metrics (PR 4); results persisted by older stores lack the keys and
        must still load (e.g. after ``repro store migrate``), so they
        default to empty.
        """
        return cls(
            scheme=data["scheme"],
            ipc=list(data["ipc"]),
            instructions=list(data["instructions"]),
            cycles=list(data["cycles"]),
            accesses=list(data["accesses"]),
            outcome_counts=dict(data["outcome_counts"]),
            stats=dict(data["stats"]),
            window_outcomes=[dict(w) for w in data.get("window_outcomes", [])],
            window_latency=list(data.get("window_latency", [])),
        )


class CmpSystem:
    """Quad-core (or any power-of-two) CMP bound to one L2 scheme.

    :meth:`run` is the reference loop.  The production system is the
    :class:`~repro.core.compiled.CompiledCmpSystem` subclass, which
    :func:`~repro.experiments.runner.make_system` (``auto``) and
    :func:`~repro.experiments.runner.run_traces` build.
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

    def _start_run(
        self,
        target_instructions: int,
        warmup_instructions: int,
        max_events: int | None,
    ) -> int:
        """Check the run sizing, open every core's measurement window, and
        return the event budget — the compiled kernel's run preamble."""
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

        The run is the executable spec's: a
        :class:`~repro.core.reference.ReferenceCmpSystem` over this
        system's scheme and traces (imported here, because
        :mod:`repro.core.reference` imports this module).  It steps its
        own cores, so this system's :class:`TraceCore` s stay as built;
        the result carries every per-core figure.
        """
        from .reference import ReferenceCmpSystem

        spec = ReferenceCmpSystem(
            self.config, self.scheme, [core.trace for core in self.cores]
        )
        return spec.run(
            target_instructions,
            warmup_instructions=warmup_instructions,
            max_events=max_events,
        )
