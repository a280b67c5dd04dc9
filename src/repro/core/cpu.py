"""Trace-driven timing core.

A :class:`TraceCore` replays one program's L2-access trace.  Each trace
record carries the number of instructions executed since the previous L2
access (``gap``, which subsumes all compute and L1-hit activity at the base
CPI) plus the block address and read/write flag.  Memory is blocking: the
core stalls for the full L2-and-below latency of each access, which is the
first-order behaviour the paper's latency deltas (10 / 30 / 40 / 300 cycles)
act upon.

The trace wraps around when exhausted so co-scheduled cores keep exerting
cache pressure until every core reaches the measurement target — mirroring
the paper's fixed-cycle detailed-simulation window.

One core for both executions
----------------------------
:class:`TraceCore` is the stepping spec, method by method: the Python loop
(:meth:`~repro.core.cmp.CmpSystem.run`) calls :meth:`next_access` and
:meth:`complete` per access, boxing one NumPy scalar per column.  The
compiled kernel (:mod:`repro.core._ckernel`) steps the same objects: it
reads each core's cursors and windows, steps the trace's own NumPy columns
in place, and writes the cursors back.  A core holds no copy of its trace.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..workloads.trace import Trace

__all__ = ["TraceCore"]


class TraceCore:
    """One in-order core replaying an L2 access trace.

    Parameters
    ----------
    core_id:
        Index of this core in the CMP.
    trace:
        The (already core-rebased) access trace to replay.
    base_cpi:
        Cycles per instruction when no L2 access is outstanding.
    l1_latency:
        Cycles charged on every L2 access for the L1 lookup that missed.
    """

    __slots__ = (
        "core_id",
        "trace",
        "base_cpi",
        "l1_latency",
        "time",
        "instructions",
        "pos",
        "wraps",
        "target_instructions",
        "warmup_instructions",
        "warmup_end_time",
        "finish_time",
        "accesses",
    )

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        *,
        base_cpi: float = 1.0,
        l1_latency: int = 1,
    ) -> None:
        if len(trace) == 0:
            raise ValueError("cannot drive a core with an empty trace")
        self.core_id = core_id
        self.trace = trace
        self.base_cpi = base_cpi
        self.l1_latency = l1_latency
        self.time = 0  # completion time of the previous access
        self.instructions = 0
        self.pos = 0
        self.wraps = 0
        self.target_instructions: Optional[int] = None
        self.warmup_instructions = 0
        self.warmup_end_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.accesses = 0

    # -- trace stepping --------------------------------------------------

    def peek_issue_time(self) -> int:
        """Time at which the next L2 access will be issued."""
        gap = int(self.trace.gaps[self.pos])
        return self.time + int(gap * self.base_cpi)

    def next_access(self) -> Tuple[int, int, bool]:
        """Consume the next trace record: its issue time, block address and
        write flag (the trace wraps at its end)."""
        gap = int(self.trace.gaps[self.pos])
        addr = int(self.trace.addrs[self.pos])
        write = bool(self.trace.writes[self.pos])
        issue = self.time + int(gap * self.base_cpi)
        self.instructions += gap
        self.accesses += 1
        self.pos += 1
        if self.pos >= len(self.trace):
            self.pos = 0
            self.wraps += 1
        return issue, addr, write

    def complete(self, issue_time: int, l2_latency: int) -> None:
        """Retire the access issued at *issue_time*, latching the warm-up
        end and the finish time when the core crosses them."""
        self.time = issue_time + self.l1_latency + l2_latency
        if self.warmup_end_time is None:
            if self.warmup_instructions == 0:
                self.warmup_end_time = 0
            elif self.instructions >= self.warmup_instructions:
                self.warmup_end_time = self.time
        if (
            self.finish_time is None
            and self.warmup_end_time is not None
            and self.target_instructions is not None
            and self.instructions >= self.warmup_instructions + self.target_instructions
        ):
            self.finish_time = self.time

    @property
    def warmed_up(self) -> bool:
        return self.warmup_end_time is not None

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    # -- measurement -------------------------------------------------------

    def ipc(self) -> float:
        """Instructions per cycle over the (post-warmup) measurement window.

        The paper fast-forwards 6 B cycles before its 3 B-cycle detailed
        window; warmup instructions and their cycles are likewise excluded
        here.
        """
        if self.finish_time is not None and self.target_instructions:
            window = self.finish_time - (self.warmup_end_time or 0)
            return self.target_instructions / max(window, 1)
        return self.instructions / self.time if self.time else 0.0
