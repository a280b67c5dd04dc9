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

Trace columns
-------------
A core keeps its trace as NumPy columns plus one pre-scaled gap column,
``gap_cycles = (trace.gaps * base_cpi).astype(np.int64)``: building a core
is a single vectorized expression, and the compiled kernel
(:mod:`repro.core._ckernel`) concatenates these columns straight into its
input arrays.  That expression truncates the same IEEE product
``int(gap * base_cpi)`` does, so it is bit-identical to the reference.
The stepping itself is specified, method by method, by
:class:`~repro.core.reference.ReferenceTraceCore`, which is also what
steps the cores of a run the kernel declines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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
        "gap_cycles",
        "_n",
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
        # Issue delay of every record in cycles: the vectorized form of the
        # reference's per-access `int(gap * base_cpi)`, truncation included.
        self.gap_cycles = (trace.gaps * base_cpi).astype(np.int64)
        self._n = len(trace)

    # -- trace stepping --------------------------------------------------

    def peek_issue_time(self) -> int:
        """Time at which the next L2 access will be issued."""
        return self.time + int(self.gap_cycles[self.pos])

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
