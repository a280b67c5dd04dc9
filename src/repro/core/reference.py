"""The seed baseline of the speed benchmark: the spec over seed-style sets.

The executable spec is :meth:`CmpSystem.run <repro.core.cmp.CmpSystem.run>`
with its :class:`~repro.core.cpu.TraceCore` s, plus the schemes'
``access()``.  This module keeps only what the speed benchmark
(``benchmarks/test_bench_sim_speed.py``) measures the compiled kernel
against: :func:`reference_system`, that loop over the seed's
:class:`ReferenceLruSet` scans.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..cache.block import CacheLine
from ..common.config import SystemConfig
from ..schemes.factory import make_scheme
from ..workloads.trace import Trace
from .cmp import CmpSystem

__all__ = ["ReferenceLruSet", "reference_system"]


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

    def touch(self, addr: int) -> Optional[CacheLine]:
        lines = self._lines
        for i, line in enumerate(lines):
            if line.addr == addr:
                if i:
                    del lines[i]
                    lines.insert(0, line)
                return line
        return None

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        victim: Optional[CacheLine] = None
        if self.full:
            victim = self._lines.pop()
        self._lines.insert(0, line)
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        lines = self._lines
        for i, line in enumerate(lines):
            if line.addr == addr:
                del lines[i]
                return line
        return None

    def remove(self, line: CacheLine) -> None:
        self._lines.remove(line)

    def clear(self) -> None:
        self._lines.clear()

    def addrs(self) -> List[int]:
        return [line.addr for line in self._lines]


def reference_system(
    config: SystemConfig,
    scheme_name: str,
    traces: Sequence[Trace],
    **scheme_kwargs,
) -> CmpSystem:
    """Build a system running the full seed hot path for benchmarking.

    Instantiates the scheme normally, then replaces every L2 cache set with
    a :class:`ReferenceLruSet` (the scheme's ``SetAssocCache`` mechanics call
    set methods polymorphically, so nothing else changes) and returns a
    :class:`~repro.core.cmp.CmpSystem`, whose ``run`` is the seed event
    loop.  Sets must be swapped before any access is issued — the caches
    are empty at construction, so state never needs migrating.
    """
    scheme = make_scheme(scheme_name, config, **scheme_kwargs)
    caches = getattr(scheme, "slices", None) or getattr(scheme, "banks", None) or []
    for cache in caches:
        # The first read of ``sets`` builds a new cache's empty sets (and
        # makes it a plain SetAssocCache); swap them in place.
        cache.sets[:] = [ReferenceLruSet(cache.assoc) for _ in range(cache.num_sets)]
    return CmpSystem(config, scheme, traces)
