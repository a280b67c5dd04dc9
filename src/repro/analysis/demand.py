"""Set-level capacity-demand characterization (Section 2, Formulas 1–5).

The pipeline mirrors the paper's methodology (Section 2.2): feed a program's
L2 reference stream through a per-set LRU stack-distance profiler of depth
``A_threshold`` (= 2 x baseline associativity), close an interval every
``interval_accesses`` references, and record for every set

``block_required(S, I)`` — Formula (3): the minimum associativity at which
the interval's hit count saturates, i.e. the deepest LRU position that hit.

The integer range ``[1, A_threshold]`` is then divided into ``M`` equal
buckets; ``size_bucket_j(I)`` — Formula (5) — is the fraction of sets whose
demand falls in bucket ``j`` during interval ``I``.  The resulting
``(intervals x M)`` matrix is exactly what Figures 1–3 plot as stacked
distributions.

Both entry points profile through the chunked
:class:`~repro.cache.stackdist_stream.StreamingProfiler` (its C step when
the kernel library is loaded, its Python step otherwise):
:func:`characterize_stream` over any iterable of address chunks, and
:func:`characterize_trace` over an in-memory trace's address column, in
:data:`DEFAULT_STREAM_CHUNK`-address views.  Either way the result is the
per-access Mattson spec's (:mod:`repro.cache.stackdist`), bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from ..cache.stackdist_stream import StreamingProfiler
from ..common.bitops import is_pow2
from ..common.errors import ConfigError
from ..workloads.trace import Trace

__all__ = [
    "bucket_bounds",
    "bucket_of",
    "DemandDistribution",
    "characterize_trace",
    "characterize_stream",
    "iter_addr_chunks",
    "DEFAULT_STREAM_CHUNK",
]

#: Default streaming chunk: 64 K addresses (512 KB resident) — small enough
#: to keep the paper-scale working set trivial, large enough to amortize the
#: per-chunk profiler calls.
DEFAULT_STREAM_CHUNK = 1 << 16


def bucket_bounds(a_threshold: int, m: int) -> List[tuple[int, int]]:
    """The ``M`` equal sub-ranges of ``[1, A_threshold]`` (Table 1).

    ``bucket_j = [(j-1) * A_thr / M + 1,  j * A_thr / M]`` for ``1 <= j <= M``.
    """
    if not (is_pow2(a_threshold) and is_pow2(m)):
        raise ConfigError("A_threshold and M must be integral powers of two")
    if m > a_threshold:
        raise ConfigError("cannot have more buckets than associativity levels")
    width = a_threshold // m
    return [((j - 1) * width + 1, j * width) for j in range(1, m + 1)]


def bucket_of(block_required: int, a_threshold: int, m: int) -> int:
    """0-based bucket index of a demand value (membership function, Formula 4)."""
    if block_required < 1:
        raise ValueError("block_required is at least 1")
    clipped = min(block_required, a_threshold)
    width = a_threshold // m
    return (clipped - 1) // width


@dataclass
class DemandDistribution:
    """Per-interval bucketed set-level demand of one program.

    Attributes
    ----------
    name:
        Workload name.
    a_threshold, m:
        Characterization parameters (32 and 8 in the paper).
    sizes:
        ``(intervals, M)`` array; row ``I`` is ``size_bucket_j(I)`` for all
        ``j`` — each row sums to 1 (Formula 5's normalization by ``N``).
    demand:
        ``(intervals, num_sets)`` array of raw ``block_required(S, I)``.
    """

    name: str
    a_threshold: int
    m: int
    sizes: np.ndarray
    demand: np.ndarray

    @property
    def intervals(self) -> int:
        return self.sizes.shape[0]

    @property
    def num_sets(self) -> int:
        return self.demand.shape[1]

    def mean_sizes(self) -> np.ndarray:
        """Time-averaged bucket distribution (length ``M``)."""
        return self.sizes.mean(axis=0)

    def giver_fraction(self, baseline_assoc: int | None = None) -> float:
        """Share of (set, interval) samples with demand <= half the baseline.

        "Giver-able" sets in the SNUG sense: they could donate roughly half
        their ways.  Defaults to ``A_threshold / 4`` (= ``A_baseline / 2``).
        """
        cut = (self.a_threshold // 4) if baseline_assoc is None else baseline_assoc // 2
        return float((self.demand <= cut).mean())

    def taker_fraction(self, baseline_assoc: int | None = None) -> float:
        """Share of samples demanding *more* than the baseline associativity."""
        cut = (self.a_threshold // 2) if baseline_assoc is None else baseline_assoc
        return float((self.demand > cut).mean())

    def nonuniformity_score(self) -> float:
        """Strength of *exploitable* set-level non-uniformity.

        Defined as ``min(giver_fraction, taker_fraction)``: both donor sets
        and starved sets must coexist for cooperative grouping to have any
        material to work with.  Streaming programs (all givers) and
        uniformly-starved programs (all takers) both score ~0; the paper's
        seven non-uniform benchmarks score high.
        """
        return min(self.giver_fraction(), self.taker_fraction())

    def is_non_uniform(self, threshold: float = 0.08) -> bool:
        """Classification used for the Section 2.3 survey."""
        return self.nonuniformity_score() >= threshold


def characterize_trace(
    trace: Trace,
    num_sets: int,
    *,
    a_threshold: int = 32,
    m: int = 8,
    interval_accesses: int = 2000,
    max_intervals: int | None = None,
) -> DemandDistribution:
    """Run the Section 2.2 characterization over *trace*.

    Parameters
    ----------
    trace:
        The program's L2 reference stream.
    num_sets:
        ``N`` — sets of the modelled L2 (1024 in the paper).
    a_threshold:
        Stack depth (32 in the paper: double the 16-way baseline).
    m:
        Number of demand buckets (8 in the paper).
    interval_accesses:
        Sampling interval length in L2 accesses (100 K in the paper).
    max_intervals:
        Optional cap on the number of intervals processed.

    The trace's address column is fed to :func:`characterize_stream` in
    :data:`DEFAULT_STREAM_CHUNK`-address views (:func:`iter_addr_chunks`),
    so the profiler holds one chunk's work at a time and only the
    ``(intervals, num_sets)`` demand matrix grows with the trace.
    """
    return characterize_stream(
        iter_addr_chunks(trace, DEFAULT_STREAM_CHUNK),
        num_sets,
        name=trace.name,
        a_threshold=a_threshold,
        m=m,
        interval_accesses=interval_accesses,
        max_intervals=max_intervals,
    )


def _bucket_sizes(demand: np.ndarray, a_threshold: int, m: int) -> np.ndarray:
    """Formula 5 over an ``(intervals, num_sets)`` demand matrix."""
    n_intervals, num_sets = demand.shape
    width = a_threshold // m
    buckets = (np.minimum(demand, a_threshold) - 1) // width
    flat = np.bincount(
        (np.arange(n_intervals, dtype=np.int64)[:, None] * m + buckets).ravel(),
        minlength=n_intervals * m,
    )
    return flat.reshape(n_intervals, m) / num_sets


def iter_addr_chunks(trace: Trace, chunk_accesses: int) -> Iterable[np.ndarray]:
    """Yield *trace*'s address column in fixed-size array views.

    Adapter from an in-memory :class:`~repro.workloads.trace.Trace` to the
    chunk-iterable contract of :func:`characterize_stream` — the views share
    the trace's buffer, so no copy is made.  For traces that should never be
    materialized at all, stream chunks straight off disk with
    :meth:`repro.workloads.trace_cache.TraceCache.stream_addrs` instead.
    """
    if chunk_accesses < 1:
        raise ConfigError("chunk_accesses must be positive")
    addrs = trace.addrs
    for i in range(0, len(addrs), chunk_accesses):
        yield addrs[i : i + chunk_accesses]


def characterize_stream(
    chunks: Iterable[np.ndarray | Sequence[int]],
    num_sets: int,
    *,
    name: str = "stream",
    a_threshold: int = 32,
    m: int = 8,
    interval_accesses: int = 2000,
    max_intervals: int | None = None,
) -> DemandDistribution:
    """Run the Section 2.2 characterization over a *chunked* address stream.

    The general form of :func:`characterize_trace`: *chunks* is any
    iterable of block-address arrays (a generator reading a trace-cache
    entry off disk, :func:`iter_addr_chunks` over an in-memory trace, a
    simulation co-run's tap, ...), consumed strictly one chunk at a time.
    Peak memory is one chunk plus the profiler's carried per-set stacks plus
    the growing ``(intervals, num_sets)`` demand matrix — the output itself
    — so paper-scale traces never have to exist in memory as a whole.

    The result is bit-identical to the per-access Mattson spec
    (:class:`~repro.cache.stackdist.StackDistanceProfiler`) on the
    concatenated stream, whatever the chunking (asserted by the unit and
    property suites); iteration stops early once *max_intervals* intervals
    are complete.
    """
    bucket_bounds(a_threshold, m)  # validates the pair
    if interval_accesses < 1:
        raise ConfigError("interval_accesses must be positive")
    profiler = StreamingProfiler(
        num_sets,
        a_threshold,
        interval_accesses=interval_accesses,
        max_intervals=max_intervals,
    )
    rows: List[np.ndarray] = []
    for chunk in chunks:
        profile = profiler.feed(chunk)
        if profile.intervals:
            rows.append(profile.block_required())
        if profiler.done:
            break
    if not rows:
        raise ConfigError("trace too short for even one sampling interval")
    demand = np.concatenate(rows, axis=0)
    return DemandDistribution(
        name=name,
        a_threshold=a_threshold,
        m=m,
        sizes=_bucket_sizes(demand, a_threshold, m),
        demand=demand,
    )
