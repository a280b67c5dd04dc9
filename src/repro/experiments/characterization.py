"""Section 2 characterization experiments: Figures 1–3 and the 26-program survey.

:func:`figure_distribution` regenerates one of Figures 1–3 (the stacked
set-level demand distribution of a single program over sampling intervals);
:func:`survey_26` reproduces the Section 2.3 conclusion that exactly seven
of the 26 SPEC2000 programs exhibit strong, exploitable set-level
non-uniformity of capacity demand.

Profiling always runs through the chunked
:mod:`repro.cache.stackdist_stream` profiler.  What ``stream=True`` chooses
is where the chunks come from: by default the whole trace is loaded (from
the trace cache, digest-checked, or generated) and walked in views; with
``stream=True`` and a trace cache the chunks are read straight off the
cache entry on disk
(:meth:`~repro.workloads.trace_cache.TraceCache.stream_addrs`, which skips
the digest check), so once the entry exists the trace is never
materialized.  Both give the same distribution.

Trace provisioning is two-tier, exactly like the simulation engine's: the
shared on-disk :class:`~repro.workloads.trace_cache.TraceCache` (``--trace-
cache DIR`` / ``$REPRO_TRACE_CACHE``) is consulted before regenerating, and
worker processes layer their per-process memo on top.  :func:`survey_26`
optionally fans its 26 programs across worker processes via the engine's
:func:`~repro.engine.pool.parallel_map` — rows come back in request order,
so the parallel survey is identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.demand import (
    DEFAULT_STREAM_CHUNK,
    DemandDistribution,
    bucket_bounds,
    characterize_stream,
    iter_addr_chunks,
)
from ..analysis.report import render_distribution, render_table
from ..common.errors import ConfigError
from ..engine.pool import parallel_map
from ..workloads.spec2000 import benchmark_names
from ..workloads.trace_cache import (
    TraceCache,
    benchmark_key,
    cached_benchmark_trace,
    resolve_cache_root,
)

__all__ = ["figure_distribution", "SurveyRow", "survey_26", "render_survey"]


def figure_distribution(
    benchmark: str,
    *,
    num_sets: int = 64,
    intervals: int = 40,
    interval_accesses: int = 2000,
    a_threshold: int = 32,
    m: int = 8,
    seed: int = 0,
    trace_cache: str | None = None,
    stream: bool = False,
    chunk_accesses: int | None = None,
) -> DemandDistribution:
    """Characterize one benchmark (Figures 1–3 use ammp / vortex / applu).

    Paper-parity parameters are ``num_sets=1024``, ``intervals=1000``,
    ``interval_accesses=100_000``; the defaults are a proportional scale-down.

    The reference stream comes through the shared on-disk trace cache
    (*trace_cache* or ``$REPRO_TRACE_CACHE``) when one is configured — the
    same digest-verified entries the simulation engine uses, so a sweep and
    its characterization generate each trace once between them.

    ``stream=True`` reads the trace in ``chunk_accesses``-address chunks
    (default :data:`~repro.analysis.demand.DEFAULT_STREAM_CHUNK`) instead of
    loading it whole.  With a trace cache configured the chunks are read
    directly off the on-disk entry, without its digest check (the trace is
    generated once to seed the cache if absent, then never materialized
    again); without one the generated trace is walked in chunk-sized views.
    Either way the result is the same as without ``stream``.
    """
    root = resolve_cache_root(trace_cache)
    cache = TraceCache(root) if root else None
    n_accesses = intervals * interval_accesses
    chunk = DEFAULT_STREAM_CHUNK if chunk_accesses is None else chunk_accesses
    shape = dict(
        name=benchmark,
        a_threshold=a_threshold,
        m=m,
        interval_accesses=interval_accesses,
        max_intervals=intervals,
    )
    if stream and cache is not None:
        key = benchmark_key(benchmark, num_sets, n_accesses, seed)
        if not cache.path_for(key).is_file():
            # Seed the entry; the trace object is dropped immediately.
            cached_benchmark_trace(cache, benchmark, num_sets, n_accesses, seed)
        try:
            return characterize_stream(
                cache.stream_addrs(key, chunk), num_sets, **shape
            )
        except ConfigError:
            raise  # bad characterization parameters, not a bad entry
        except ValueError:
            # Corrupt entry: fall through to the regenerating loader, then
            # walk the regenerated trace in memory.
            pass
    trace, _source = cached_benchmark_trace(
        cache, benchmark, num_sets, n_accesses, seed
    )
    return characterize_stream(iter_addr_chunks(trace, chunk), num_sets, **shape)


def render_figure(dist: DemandDistribution, *, max_rows: int = 20) -> str:
    """Figures 1–3 as text: bucket share per sampled interval."""
    labels = [f"{lo}~{hi}" for lo, hi in bucket_bounds(dist.a_threshold, dist.m)]
    return render_distribution(
        dist.sizes,
        labels,
        title=f"Set-level capacity demand distribution: {dist.name}",
        max_rows=max_rows,
    )


@dataclass
class SurveyRow:
    """One program's verdict in the Section 2.3 survey."""

    benchmark: str
    giver_fraction: float
    taker_fraction: float
    score: float
    non_uniform: bool


def _survey_one(
    name: str,
    num_sets: int,
    intervals: int,
    interval_accesses: int,
    seed: int,
    threshold: float,
    trace_cache: str | None = None,
    stream: bool = False,
    chunk_accesses: int | None = None,
) -> SurveyRow:
    """One program's survey row (module-level so worker processes can run it)."""
    dist = figure_distribution(
        name,
        num_sets=num_sets,
        intervals=intervals,
        interval_accesses=interval_accesses,
        seed=seed,
        trace_cache=trace_cache,
        stream=stream,
        chunk_accesses=chunk_accesses,
    )
    return SurveyRow(
        benchmark=name,
        giver_fraction=dist.giver_fraction(),
        taker_fraction=dist.taker_fraction(),
        score=dist.nonuniformity_score(),
        non_uniform=dist.is_non_uniform(threshold),
    )


def survey_26(
    *,
    num_sets: int = 64,
    intervals: int = 12,
    interval_accesses: int = 1500,
    seed: int = 0,
    threshold: float = 0.08,
    jobs: int = 0,
    trace_cache: str | None = None,
    stream: bool = False,
    chunk_accesses: int | None = None,
) -> List[SurveyRow]:
    """Characterize all 26 programs and classify their non-uniformity.

    ``jobs >= 1`` fans the programs across that many worker processes via
    :func:`~repro.engine.pool.parallel_map`; rows are returned in benchmark
    order either way, so the output is identical to the serial run.
    *trace_cache* (default ``$REPRO_TRACE_CACHE``) lets the workers share
    generated reference streams on disk.  ``stream=True`` reads each
    program's trace in ``chunk_accesses``-address chunks, straight off the
    trace cache's entry when one is configured (see
    :func:`figure_distribution`): the same rows, with bounded memory per
    worker.
    """
    return parallel_map(
        _survey_one,
        [
            (
                name,
                num_sets,
                intervals,
                interval_accesses,
                seed,
                threshold,
                trace_cache,
                stream,
                chunk_accesses,
            )
            for name in benchmark_names()
        ],
        jobs=jobs,
    )


def render_survey(rows: List[SurveyRow]) -> str:
    """The survey as a table, non-uniform programs flagged."""
    table_rows = [
        [r.benchmark, r.giver_fraction, r.taker_fraction, r.score, "NON-UNIFORM" if r.non_uniform else "uniform"]
        for r in rows
    ]
    return render_table(
        ["benchmark", "giver_frac", "taker_frac", "score", "verdict"],
        table_rows,
        title="Section 2.3 survey: set-level non-uniformity of capacity demand",
    )


def non_uniform_names(rows: List[SurveyRow]) -> List[str]:
    """Names classified non-uniform (paper: the 7 of Section 2.3)."""
    return sorted(r.benchmark for r in rows if r.non_uniform)
