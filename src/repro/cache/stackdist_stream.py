"""Chunked/incremental LRU stack-distance profiling (the streaming path).

:func:`~repro.cache.stackdist_fast.profile_stream` needs the whole reference
stream in memory at once — fine for a survey-scale run, a real constraint at
paper scale (1024 sets x 100 K-access intervals x 1000 intervals) and a
non-starter for profiling *while a stream is still being produced* (trace
generators, simulation co-runs, chunk-streamed trace-cache entries).  This
module computes the *same* per-interval, per-set hit-position histograms one
bounded chunk at a time: memory is ``O(chunk + num_sets * depth)``,
independent of total trace length, and the emitted
:class:`~repro.cache.stackdist_fast.DemandProfile` slices are bit-identical
to the batch kernel on the concatenated stream (the batch kernel stays the
oracle in the property suite).

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

The step: bounded LRU stacks in C
---------------------------------
When the compiled kernel library is loaded
(:func:`repro.core._ckernel.lib_available`), each chunk is stepped through
those stacks by the library's ``profile_feed``
(:func:`repro.core._ckernel.profile_feed`): each address is looked up in
its set's row, MRU first; a hit at position ``p`` bumps bin ``p`` of that
set's histogram; hit or miss, the address moves to the front, and a miss on
a full row drops the LRU entry.  That is the per-access Mattson stack of
:mod:`repro.cache.stackdist` cut off at ``depth`` — exact, by the argument
above — at ``O(depth)`` work per reference and no allocation.  In
fixed-interval mode each chunk is cut at interval boundaries, so every
piece is stepped into its own interval's histogram.

Without the library: replaying the carry as a prefix
----------------------------------------------------
Without the library (``REPRO_NO_CKERNEL=1``, no C compiler, or a failed
build), each chunk is profiled by the vectorized batch kernel instead, by
**replaying the carry as a synthetic prefix**: the carried stack of every
set touched by the chunk is read from ``stk`` in LRU→MRU order, prepended,
and the batch kernel runs over ``prefix + chunk``.

* A prefix reference is the first occurrence of its address in the combined
  array, so the kernel scores it as a cold miss — it contributes nothing to
  the histograms.
* A chunk reference whose previous occurrence lies in the chunk sees exactly
  the window it would see in the full stream.
* A chunk reference whose previous occurrence is older sees its address at
  stack position ``p`` in the carry iff ``p - 1`` distinct addresses were
  referenced since — and those are precisely the prefix entries replayed
  *after* it, so the kernel's window count again matches the full-stream
  distance.
* An address absent from the carry had (at least) ``depth`` distinct
  addresses referenced since its last occurrence: distance ``> depth`` in
  the full stream, cold miss in the replay — identical histogram either way.

The touched sets' new stacks are then read off ``prefix + chunk`` and
written back into ``stk`` and ``lens``, and the chunk's hits are tallied
into intervals in one pass.

Two interval disciplines share the machinery: **fixed intervals** (an
interval closes every ``interval_accesses`` references, as in
:func:`~repro.cache.stackdist_fast.profile_stream`; completed slices are
returned from :meth:`StreamingProfiler.feed` as they fill) and **caller-cut
intervals** (:meth:`StreamingProfiler.cut` closes an interval on demand —
SNUG's online demand monitors cut at Stage-I epoch boundaries).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..common.bitops import is_pow2
from .stackdist_fast import DemandProfile, stack_distances

__all__ = [
    "StreamingProfiler",
    "concat_profiles",
    "profile_chunks",
]


def concat_profiles(profiles: Sequence[DemandProfile]) -> DemandProfile:
    """Concatenate per-interval slices into one :class:`DemandProfile`.

    All slices must agree on ``(num_sets, depth)``; empty slices are
    dropped.  ``concat_profiles(streaming slices)`` equals the batch profile
    of the concatenated stream — the equivalence the property suite pins.
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
        (:meth:`feed` returns completed slices, a trailing partial interval
        is never emitted — matching
        :func:`~repro.cache.stackdist_fast.profile_stream`).  ``None``
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
            out = self._step(addrs, _ckernel.profile_feed)
        else:
            out = self._replay(addrs)
        self._consumed += n
        return out

    def _step(self, addrs: np.ndarray, profile_feed) -> DemandProfile:
        """Step the carried stacks over the chunk in C (*profile_feed*),
        closing fixed intervals at their boundaries."""
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

    def _replay(self, addrs: np.ndarray) -> DemandProfile:
        """Profile the chunk with the batch kernel, the touched sets'
        carried stacks replayed as a cold prefix (the no-library path)."""
        depth = self.depth
        touched = np.unique(addrs & self._mask)
        lens = self._lens[touched]
        # Each touched set's live row, read back to front (LRU first).
        last = np.repeat(touched * depth + lens - 1, lens)
        back = np.arange(last.size) - np.repeat(np.cumsum(lens) - lens, lens)
        prefix = self._stk[last - back]
        combined = np.concatenate([prefix, addrs])
        dist = stack_distances(combined, self.num_sets)[prefix.size :]

        out = self._tally(addrs, dist)
        self._store_stacks(combined, touched)
        return out

    def _tally(self, addrs: np.ndarray, dist: np.ndarray) -> DemandProfile:
        """Fold the chunk's hits into interval histograms; emit full ones."""
        depth = self.depth
        hit = (dist >= 1) & (dist <= depth)
        sets = (addrs & self._mask)[hit]
        pos = dist[hit] - 1
        ia = self.interval_accesses
        if ia is None:
            # Caller-cut mode: everything lands in the single open interval.
            np.add.at(self._open_hist, (sets, pos), 1)
            return self._empty()

        n = addrs.size
        start, end = self._consumed, self._consumed + n
        first = start // ia
        n_local = (end - 1) // ia - first + 1
        rel = np.arange(start, end, dtype=np.int64)[hit] // ia - first
        keys = (rel * self.num_sets + sets) * depth + pos
        local = np.bincount(keys, minlength=n_local * self.num_sets * depth)
        local = local.astype(np.int64).reshape(n_local, self.num_sets, depth)
        local[0] += self._open_hist

        complete = end // ia - first
        if self.max_intervals is not None:
            complete = min(complete, self.max_intervals - self._emitted)
        emitted = local[:complete]
        self._emitted += complete
        self._open_hist = (
            local[complete].copy()
            if complete < n_local
            else np.zeros((self.num_sets, depth), dtype=np.int64)
        )
        return DemandProfile(hist=emitted.copy())

    def _store_stacks(self, combined: np.ndarray, touched: np.ndarray) -> None:
        """Write the touched sets' new bounded stacks, from ``prefix +
        chunk``, into the carry.

        A set's new stack is its ``depth`` most-recently-used distinct
        addresses — computed in one pass: last occurrence of every distinct
        address (first occurrence in the reversed array), grouped by set,
        most recent first.  Every distinct address lies in a touched set,
        and every touched set has one.
        """
        depth = self.depth
        rev = combined[::-1]
        uniq, first_rev = np.unique(rev, return_index=True)
        order = np.lexsort((first_rev, uniq & self._mask))
        uniq = uniq[order]
        uniq_sets = uniq & self._mask
        starts = np.searchsorted(uniq_sets, touched, side="left")
        counts = np.diff(np.append(starts, uniq.size))
        rank = np.arange(uniq.size) - np.repeat(starts, counts)
        keep = rank < depth
        self._stk[uniq_sets[keep] * depth + rank[keep]] = uniq[keep]
        self._lens[touched] = np.minimum(counts, depth)

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

    Drop-in replacement for
    :func:`~repro.cache.stackdist_fast.profile_stream` when the stream
    arrives (or is read) in pieces: the result is bit-identical to the batch
    kernel over the concatenated chunks, but only one chunk is ever resident.
    Stops consuming early once *max_intervals* intervals are complete.
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
