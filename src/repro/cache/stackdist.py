"""Mattson LRU stack-distance profiling (per set).

Section 2 of the paper quantifies a set's capacity demand with the classic
stack property of LRU (Mattson et al., 1970): one pass over the reference
stream with an ``A_threshold``-deep LRU stack per set yields, for every
associativity ``A <= A_threshold`` simultaneously,

``hit_count(S, I, A)`` = number of hits at LRU positions ``<= A``.

``block_required(S, I)`` (Formula 3) is then the smallest ``A`` with
``hit_count(S, I, A) == hit_count(S, I, A_threshold)`` — i.e. the deepest
LRU position that produced a hit during the interval (or 1 if the interval
had no hits at all, since one block is the minimum a set can own).

This module is the *executable spec* of the profiling pipeline: a literal
per-access stack walk, kept deliberately simple.  Production callers go
through :mod:`repro.cache.stackdist_stream`, which walks the same stacks,
bounded at ``depth``, over chunks of the stream: in C when the kernel
library is loaded, in Python otherwise (the same spec/production split as
:meth:`repro.core.cmp.CmpSystem.run` vs :mod:`repro.core.compiled`).  The
test suites hold both of its steps to this module, bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["StackDistanceSet", "StackDistanceProfiler"]


class StackDistanceSet:
    """An LRU tag stack of bounded depth with per-position hit counting."""

    __slots__ = ("depth", "_stack", "hist")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("stack depth must be >= 1")
        self.depth = depth
        self._stack: List[int] = []  # MRU first
        # hist[a] = hits at LRU position a+1 within the current interval.
        self.hist = np.zeros(depth, dtype=np.int64)

    def reference(self, addr: int) -> int:
        """Process one reference; return its 1-based LRU position (0 = miss)."""
        stack = self._stack
        try:
            pos = stack.index(addr)
        except ValueError:
            if len(stack) >= self.depth:
                stack.pop()
            stack.insert(0, addr)
            return 0
        del stack[pos]
        stack.insert(0, addr)
        self.hist[pos] += 1
        return pos + 1

    def block_required(self) -> int:
        """Formula 3 for the current interval: deepest hit position, min 1."""
        nz = np.nonzero(self.hist)[0]
        if nz.size == 0:
            return 1
        return int(nz[-1]) + 1

    def hit_count(self, assoc: int) -> int:
        """``hit_count(S, I, assoc)``: hits at positions <= assoc."""
        assoc = min(assoc, self.depth)
        return int(self.hist[:assoc].sum())

    def new_interval(self) -> None:
        """Zero the histogram; the stack content carries across intervals."""
        self.hist[:] = 0


class StackDistanceProfiler:
    """Per-set stack-distance profiler for one cache's reference stream.

    Parameters
    ----------
    num_sets:
        ``N`` — number of sets to model.
    depth:
        ``A_threshold`` — stack depth per set (``2 * A_baseline`` in the
        paper).

    Notes
    -----
    Feed block addresses via :meth:`reference`; close an interval with
    :meth:`end_interval`, which returns the vector ``block_required(S, I)``
    for all sets and resets the histograms.
    """

    def __init__(self, num_sets: int, depth: int) -> None:
        if num_sets < 1:
            raise ValueError("need at least one set")
        self.num_sets = num_sets
        self.depth = depth
        self._mask = num_sets - 1
        if num_sets & self._mask:
            raise ValueError("num_sets must be a power of two")
        self.sets = [StackDistanceSet(depth) for _ in range(num_sets)]
        self.accesses = 0

    def reference(self, block_addr: int) -> int:
        """Profile one block-address reference; returns LRU position (0=miss)."""
        self.accesses += 1
        return self.sets[block_addr & self._mask].reference(block_addr)

    def reference_many(self, block_addrs: Sequence[int] | np.ndarray) -> None:
        """Profile a batch of references (no per-access result)."""
        sets = self.sets
        m = self._mask
        for addr in block_addrs:
            sets[int(addr) & m].reference(int(addr))
        self.accesses += len(block_addrs)

    def end_interval(self) -> np.ndarray:
        """Finish the current interval; return per-set ``block_required``."""
        out = np.empty(self.num_sets, dtype=np.int64)
        for s, stackset in enumerate(self.sets):
            out[s] = stackset.block_required()
            stackset.new_interval()
        return out

    def hit_counts(self, assoc: int) -> np.ndarray:
        """Per-set ``hit_count(S, I, assoc)`` for the *current* interval."""
        return np.array([s.hit_count(assoc) for s in self.sets], dtype=np.int64)
