"""The executable spec of the timing hot path: the seed loop, kept as is.

:class:`ReferenceCmpSystem` and :class:`ReferenceTraceCore` are the
original, straightforward implementation — per-access NumPy indexing and
plain method dispatch.  Together with the schemes' ``access()`` they are
the **executable specification** every other execution is held to,
bit-identical at the :class:`~repro.core.cmp.SimResult` level:

* this is the one Python loop.  :meth:`CmpSystem.run
  <repro.core.cmp.CmpSystem.run>` runs it, so every system the compiled
  kernel declines runs this code, and so does ``--sim-core reference``
  (:func:`repro.experiments.runner.make_system`);
* the golden snapshots (``tests/integration/test_golden_schemes.py``),
  the conformance suite (``tests/integration/test_batch_conformance.py``)
  and the differential property test
  (``tests/property/test_cpu_properties.py``) hold the compiled kernel to
  it;
* the speed benchmark (``benchmarks/test_bench_sim_speed.py``) measures
  the kernel against :func:`reference_system`, this loop over the seed's
  :class:`ReferenceLruSet` scans.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..cache.block import CacheLine
from ..common.config import SystemConfig
from ..common.errors import SimulationError
from ..schemes.base import L2Scheme, Outcome
from ..schemes.factory import make_scheme
from ..workloads.trace import Trace
from .cmp import SimResult, budget_exhausted_error

__all__ = [
    "ReferenceTraceCore",
    "ReferenceCmpSystem",
    "ReferenceLruSet",
    "reference_system",
]


class ReferenceLruSet:
    """The seed ``LruSet``: Python-level scans over ``line.addr``.

    The production set keeps a parallel MRU-ordered list of plain-int block
    addresses so membership tests run inside ``list.__contains__`` /
    ``list.index``; this class preserves the original attribute-access scan
    as the performance baseline.  API-compatible with
    :class:`~repro.cache.lruset.LruSet`.
    """

    __slots__ = ("assoc", "_lines")

    def __init__(self, assoc: int) -> None:
        if assoc < 1:
            raise ValueError("associativity must be >= 1")
        self.assoc = assoc
        self._lines: List[CacheLine] = []

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[CacheLine]:
        return iter(self._lines)

    @property
    def full(self) -> bool:
        return len(self._lines) >= self.assoc

    def probe(self, addr: int) -> Optional[CacheLine]:
        for line in self._lines:
            if line.addr == addr:
                return line
        return None

    def hit_position(self, addr: int) -> int:
        for i, line in enumerate(self._lines):
            if line.addr == addr:
                return i + 1
        return 0

    def touch(self, addr: int) -> Optional[CacheLine]:
        lines = self._lines
        for i, line in enumerate(lines):
            if line.addr == addr:
                if i:
                    del lines[i]
                    lines.insert(0, line)
                return line
        return None

    def access(self, addr: int) -> tuple[int, Optional[CacheLine]]:
        lines = self._lines
        for i, line in enumerate(lines):
            if line.addr == addr:
                if i:
                    del lines[i]
                    lines.insert(0, line)
                return i + 1, line
        return 0, None

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        victim: Optional[CacheLine] = None
        if self.full:
            victim = self._lines.pop()
        self._lines.insert(0, line)
        return victim

    def insert_at_lru(self, line: CacheLine) -> Optional[CacheLine]:
        victim: Optional[CacheLine] = None
        if self.full:
            victim = self._lines.pop()
        self._lines.append(line)
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        lines = self._lines
        for i, line in enumerate(lines):
            if line.addr == addr:
                del lines[i]
                return line
        return None

    def find_victim(self, predicate: Callable[[CacheLine], bool]) -> Optional[CacheLine]:
        for line in reversed(self._lines):
            if predicate(line):
                return line
        return None

    def evict_lru(self) -> Optional[CacheLine]:
        if self._lines:
            return self._lines.pop()
        return None

    def remove(self, line: CacheLine) -> None:
        self._lines.remove(line)

    def clear(self) -> None:
        self._lines.clear()

    def addrs(self) -> List[int]:
        return [line.addr for line in self._lines]


class ReferenceTraceCore:
    """The seed ``TraceCore``: boxes a NumPy scalar on every access."""

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
        self.time = 0
        self.instructions = 0
        self.pos = 0
        self.wraps = 0
        self.target_instructions: Optional[int] = None
        self.warmup_instructions = 0
        self.warmup_end_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.accesses = 0

    def peek_issue_time(self) -> int:
        gap = int(self.trace.gaps[self.pos])
        return self.time + int(gap * self.base_cpi)

    def next_access(self) -> Tuple[int, int, bool]:
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

    def ipc(self) -> float:
        if self.finish_time is not None and self.target_instructions:
            window = self.finish_time - (self.warmup_end_time or 0)
            return self.target_instructions / max(window, 1)
        return self.instructions / self.time if self.time else 0.0


class ReferenceCmpSystem:
    """The seed ``CmpSystem.run`` loop, method dispatch and all."""

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
            ReferenceTraceCore(
                i,
                trace,
                base_cpi=config.base_cpi,
                l1_latency=config.latency.l1_hit,
            )
            for i, trace in enumerate(traces)
        ]

    def run(
        self,
        target_instructions: int,
        *,
        warmup_instructions: int = 0,
        max_events: int | None = None,
    ) -> SimResult:
        if target_instructions < 1:
            raise SimulationError("target_instructions must be positive")
        if warmup_instructions < 0:
            raise SimulationError("warmup_instructions must be non-negative")
        for core in self.cores:
            core.target_instructions = target_instructions
            core.warmup_instructions = warmup_instructions
            if warmup_instructions == 0:
                core.warmup_end_time = 0

        outcome_counts = {o.value: 0 for o in Outcome}
        window_outcomes = [{o.value: 0 for o in Outcome} for _ in self.cores]
        window_latency = [0 for _ in self.cores]
        heap: List[tuple[int, int]] = [
            (core.peek_issue_time(), core.core_id) for core in self.cores
        ]
        heapq.heapify(heap)
        remaining = len(self.cores)
        budget = max_events if max_events is not None else 0
        if budget <= 0:
            mean_gap = max(1.0, float(min(t.gaps.mean() for t in (c.trace for c in self.cores))))
            total = target_instructions + warmup_instructions
            budget = int(len(self.cores) * total / mean_gap * 50) + 10_000

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

def reference_system(
    config: SystemConfig,
    scheme_name: str,
    traces: Sequence[Trace],
    **scheme_kwargs,
) -> ReferenceCmpSystem:
    """Build a system running the full seed hot path for benchmarking.

    Instantiates the scheme normally, then replaces every L2 cache set with
    a :class:`ReferenceLruSet` (the scheme's ``SetAssocCache`` mechanics call
    set methods polymorphically, so nothing else changes) and drives it with
    the seed event loop.  Sets must be swapped before any access is issued —
    the caches are empty at construction, so state never needs migrating.
    """
    scheme = make_scheme(scheme_name, config, **scheme_kwargs)
    caches = getattr(scheme, "slices", None) or getattr(scheme, "banks", None) or []
    for cache in caches:
        cache.sets = [ReferenceLruSet(cache.assoc) for _ in range(cache.num_sets)]
    return ReferenceCmpSystem(config, scheme, traces)
