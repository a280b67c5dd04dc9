"""Chunked/incremental LRU stack-distance profiling (the production profiler).

:mod:`repro.cache.stackdist` is the executable spec: a per-access Mattson
LRU stack per set.  This module computes the *same* per-interval, per-set
hit-position histograms one bounded chunk at a time: memory is
``O(chunk + num_sets * depth)``, independent of total trace length, so it
serves the Section 2 characterization (Figures 1-3 and the 26-program
survey, at paper scale included), SNUG's online demand monitors and
chunk-streamed trace-cache entries alike.  The emitted
:class:`DemandProfile` slices are bit-identical to the spec's histograms on
the concatenated stream (the spec is the oracle in the property suites).

Why a bounded carry suffices
----------------------------
A depth-``d`` profiler only distinguishes stack distances ``<= d``; deeper
re-references and cold misses alike fall off the histogram.  By the LRU
inclusion property, the top ``d`` entries of the unbounded Mattson stack —
the ``d`` most-recently-used distinct addresses — fully determine every
distance that can still matter.  So the only state carried between chunks is
each set's bounded stack (at most ``depth`` addresses, MRU first), held in
two arrays: ``stk`` (one ``depth``-wide row per set) and ``lens`` (each
row's live entries).

The step: one walk, two executions
----------------------------------
Each chunk is stepped through those stacks, one reference at a time: the
address is looked up in its set's row, MRU first; a hit at position ``p``
bumps bin ``p`` of that set's histogram; hit or miss, the address moves to
the front, and a miss on a full row drops the LRU entry.  That is
:meth:`~repro.cache.stackdist.StackDistanceSet.reference` cut off at
``depth`` — exact, by the argument above.  When the compiled kernel
library is loaded (:func:`repro.core._ckernel.lib_available`) the step is
the library's ``profile_feed`` (:func:`repro.core._ckernel.profile_feed`,
``O(depth)`` work per reference and no allocation); without it
(``REPRO_NO_CKERNEL=1``, no C compiler, or a failed build) it is
:func:`_profile_feed_py`, the same walk in Python over the same arrays,
and the first such feed in a process says so on stderr::

    repro.profiler: C kernel unavailable (<why>); using the Python step (bit-identical)

Two interval disciplines share the step: **fixed intervals** (an interval
closes every ``interval_accesses`` references, and the spec never profiles
a trailing partial interval; each chunk is cut at interval boundaries, and
completed slices are returned from :meth:`StreamingProfiler.feed` as they
fill) and **caller-cut intervals** (:meth:`StreamingProfiler.cut` closes an
interval on demand — SNUG's online demand monitors cut at Stage-I epoch
boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from ..common.bitops import is_pow2

__all__ = [
    "DemandProfile",
    "StreamingProfiler",
    "concat_profiles",
    "profile_chunks",
]


@dataclass(frozen=True)
class DemandProfile:
    """Per-interval, per-set hit-position histograms of one stream.

    ``hist[i, s, p]`` counts interval *i*'s hits of set *s* at LRU position
    ``p + 1`` — the same tallies :class:`~repro.cache.stackdist`'s
    ``StackDistanceSet.hist`` accumulates, for every interval at once.
    """

    hist: np.ndarray  # (intervals, num_sets, depth) int64

    @property
    def intervals(self) -> int:
        return self.hist.shape[0]

    @property
    def num_sets(self) -> int:
        return self.hist.shape[1]

    @property
    def depth(self) -> int:
        return self.hist.shape[2]

    def block_required(self) -> np.ndarray:
        """Formula 3 per (interval, set): deepest hit position, min 1."""
        hits = self.hist > 0
        any_hit = hits.any(axis=2)
        deepest = self.depth - 1 - hits[:, :, ::-1].argmax(axis=2)
        return np.where(any_hit, deepest + 1, 1).astype(np.int64)

    def hit_counts(self, assoc: int) -> np.ndarray:
        """``hit_count(S, I, assoc)`` per (interval, set)."""
        return self.hist[:, :, : min(assoc, self.depth)].sum(axis=2)


def concat_profiles(profiles: Sequence[DemandProfile]) -> DemandProfile:
    """Concatenate per-interval slices into one :class:`DemandProfile`.

    All slices must agree on ``(num_sets, depth)``; empty slices are
    dropped.  ``concat_profiles(streaming slices)`` equals the profile of
    the concatenated stream — the equivalence the property suite pins.
    """
    kept = [p.hist for p in profiles if p.intervals]
    if not kept:
        if not profiles:
            raise ValueError("concat_profiles needs at least one profile")
        return profiles[0]
    shapes = {h.shape[1:] for h in kept}
    if len(shapes) > 1:
        raise ValueError(f"profiles disagree on (num_sets, depth): {sorted(shapes)}")
    return DemandProfile(hist=np.concatenate(kept, axis=0))


def _profile_feed_py(addrs: np.ndarray, mask: int, depth: int, stk: np.ndarray,
                     lens: np.ndarray, hist: np.ndarray) -> None:
    """The Python step: :func:`repro.core._ckernel.profile_feed`'s
    signature and effect, for when the kernel library is not loaded.

    Each touched set's row is read into a list, MRU first, and walked as
    :meth:`~repro.cache.stackdist.StackDistanceSet.reference` walks its
    stack; the rows go back into *stk* and *lens*, and the hits into
    *hist*, at the end.
    """
    rows = {}
    hits = []
    for a in addrs.tolist():
        s = a & mask
        row = rows.get(s)
        if row is None:
            row = rows[s] = stk[s * depth : s * depth + lens[s]].tolist()
        if a in row:
            p = row.index(a)
            del row[p]
            hits.append(s * depth + p)
        elif len(row) >= depth:
            row.pop()
        row.insert(0, a)
    for s, row in rows.items():
        stk[s * depth : s * depth + len(row)] = row
        lens[s] = len(row)
    np.add.at(hist.reshape(-1), hits, 1)


class StreamingProfiler:
    """Incremental per-set stack-distance profiler over a chunked stream.

    Parameters
    ----------
    num_sets:
        ``N`` — number of sets to model (power of two).
    depth:
        ``A_threshold`` — histogram depth per set.
    interval_accesses:
        Fixed-interval mode: close an interval every this many references
        (:meth:`feed` returns completed slices; a trailing partial interval
        is never emitted, as the spec never profiles one).  ``None``
        selects caller-cut mode: all hits accumulate until :meth:`cut`.
    max_intervals:
        Fixed-interval mode only: stop emitting (and profiling) after this
        many intervals.

    Notes
    -----
    Peak memory is one chunk plus the carried bounded stacks (``num_sets *
    depth`` addresses) plus the open interval's histogram — constant in the
    total stream length.
    """

    def __init__(
        self,
        num_sets: int,
        depth: int,
        interval_accesses: int | None = None,
        max_intervals: int | None = None,
    ) -> None:
        if not is_pow2(num_sets):
            raise ValueError(f"num_sets must be a positive power of two, got {num_sets}")
        if depth < 1:
            raise ValueError("stack depth must be >= 1")
        if interval_accesses is not None and interval_accesses < 1:
            raise ValueError("interval_accesses must be positive")
        if max_intervals is not None and interval_accesses is None:
            raise ValueError("max_intervals requires fixed intervals")
        self.num_sets = num_sets
        self.depth = depth
        self.interval_accesses = interval_accesses
        self.max_intervals = max_intervals
        self._mask = num_sets - 1
        #: Carried bounded stacks: row ``s`` holds set ``s``'s most recently
        #: used distinct addresses, MRU first (the orientation of
        #: ``StackDistanceSet._stack``); ``_lens[s]`` of them are live.
        self._stk = np.zeros(num_sets * depth, dtype=np.int64)
        self._lens = np.zeros(num_sets, dtype=np.int64)
        self._open_hist = np.zeros((num_sets, depth), dtype=np.int64)
        self._consumed = 0
        self._emitted = 0

    # -- introspection -----------------------------------------------------

    @property
    def consumed(self) -> int:
        """References consumed so far (across all chunks)."""
        return self._consumed

    @property
    def emitted_intervals(self) -> int:
        """Completed intervals emitted so far (fixed-interval mode)."""
        return self._emitted

    @property
    def done(self) -> bool:
        """True once ``max_intervals`` intervals have been emitted."""
        return self.max_intervals is not None and self._emitted >= self.max_intervals

    def _empty(self) -> DemandProfile:
        return DemandProfile(
            hist=np.zeros((0, self.num_sets, self.depth), dtype=np.int64)
        )

    # -- the chunk step ----------------------------------------------------

    def feed(self, addrs: np.ndarray | Sequence[int]) -> DemandProfile:
        """Consume one chunk; return the interval slices it completed.

        In caller-cut mode the returned profile is always empty (hits wait
        for :meth:`cut`).  Feeding after ``max_intervals`` is reached is a
        no-op.
        """
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        n = addrs.size
        if n == 0 or self.done:
            return self._empty()
        # Imported here: repro.core imports schemes.snug, which imports us.
        from ..core import _ckernel

        if _ckernel.lib_available():
            step = _ckernel.profile_feed
        else:
            from ..core.compiled import fallback_notice

            fallback_notice(
                f"C kernel unavailable ({_ckernel.reason()})",
                source="repro.profiler",
                fallback="the Python step",
            )
            step = _profile_feed_py
        out = self._step(addrs, step)
        self._consumed += n
        return out

    def _step(self, addrs: np.ndarray, profile_feed) -> DemandProfile:
        """Step the carried stacks over the chunk with *profile_feed* (the
        C step or the Python step), closing fixed intervals at their
        boundaries."""
        carry = (self._mask, self.depth, self._stk, self._lens)
        ia = self.interval_accesses
        if ia is None:
            profile_feed(addrs, *carry, self._open_hist)
            return self._empty()
        closed: List[np.ndarray] = []
        start, n = 0, addrs.size
        while start < n and not self.done:
            stop = min(n, start + ia - (self._consumed + start) % ia)
            profile_feed(addrs[start:stop], *carry, self._open_hist)
            start = stop
            if (self._consumed + stop) % ia == 0:
                closed.append(self._open_hist)
                self._open_hist = np.zeros((self.num_sets, self.depth), dtype=np.int64)
                self._emitted += 1
        return DemandProfile(hist=np.stack(closed)) if closed else self._empty()

    def cut(self) -> np.ndarray:
        """Close the open interval (caller-cut mode); return its histogram.

        Returns the ``(num_sets, depth)`` hit-position histogram accumulated
        since the previous cut and re-arms for the next interval — the
        streaming analogue of
        :meth:`~repro.cache.stackdist.StackDistanceProfiler.end_interval`
        (which returns ``block_required`` instead; wrap the row in a
        :class:`DemandProfile` to derive it).
        """
        if self.interval_accesses is not None:
            raise ValueError("cut() is for caller-cut mode; intervals are fixed")
        out = self._open_hist
        self._open_hist = np.zeros((self.num_sets, self.depth), dtype=np.int64)
        return out

    def cut_block_required(self) -> np.ndarray:
        """:meth:`cut`, reduced to per-set ``block_required`` (Formula 3)."""
        return DemandProfile(hist=self.cut()[None]).block_required()[0]


def profile_chunks(
    chunks: Iterable[np.ndarray | Sequence[int]],
    num_sets: int,
    depth: int,
    interval_accesses: int,
    max_intervals: int | None = None,
) -> DemandProfile:
    """Profile an iterable of address chunks into one :class:`DemandProfile`.

    The result equals the spec's per-interval histograms over the
    concatenated chunks (a
    :class:`~repro.cache.stackdist.StackDistanceProfiler` snapshotted every
    *interval_accesses* references, trailing partial interval dropped), but
    only one chunk is ever resident.  Stops consuming early once
    *max_intervals* intervals are complete.
    """
    profiler = StreamingProfiler(
        num_sets, depth, interval_accesses=interval_accesses, max_intervals=max_intervals
    )
    slices = []
    for chunk in chunks:
        slices.append(profiler.feed(chunk))
        if profiler.done:
            break
    if not slices:
        return profiler._empty()
    return concat_profiles(slices)
