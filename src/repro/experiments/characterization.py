"""Section 2 characterization experiments: Figures 1–3 and the 26-program survey.

:func:`figure_distribution` regenerates one of Figures 1–3 (the stacked
set-level demand distribution of a single program over sampling intervals);
:func:`survey_26` reproduces the Section 2.3 conclusion that exactly seven
of the 26 SPEC2000 programs exhibit strong, exploitable set-level
non-uniformity of capacity demand.

Profiling always runs through the chunked
:mod:`repro.cache.stackdist_stream` profiler, in
:data:`~repro.analysis.demand.DEFAULT_STREAM_CHUNK`-address chunks.  Where
the chunks come from follows from what the shared on-disk
:class:`~repro.workloads.trace_cache.TraceCache` (``--trace-cache DIR`` /
``$REPRO_TRACE_CACHE``) holds, with no switch: a cached trace is read
straight off its entry on disk
(:meth:`~repro.workloads.trace_cache.TraceCache.stream_addrs`, which checks
the entry's content digest in one streamed pass first), so it is never
materialized; a missing or rejected entry is generated, stored and walked
in memory; without a cache the trace is generated in memory.  A rejected
entry is announced once per process on stderr
(``repro.trace_cache: ...; using a regenerated trace``).  Every source
gives the same distribution.

:func:`survey_26` optionally fans its 26 programs across worker processes
via the engine's :func:`~repro.engine.pool.parallel_map` — rows come back
in request order, so the parallel survey is identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.demand import (
    DEFAULT_STREAM_CHUNK,
    DemandDistribution,
    bucket_bounds,
    characterize_stream,
    characterize_trace,
)
from ..analysis.report import render_distribution, render_table
from ..common.errors import ConfigError
from ..core.compiled import fallback_notice
from ..engine.pool import parallel_map
from ..workloads.spec2000 import benchmark_names, make_benchmark_trace
from ..workloads.trace_cache import TraceCache, benchmark_key, resolve_cache_root

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
) -> DemandDistribution:
    """Characterize one benchmark (Figures 1–3 use ammp / vortex / applu).

    Paper-parity parameters are ``num_sets=1024``, ``intervals=1000``,
    ``interval_accesses=100_000``; the defaults are a proportional scale-down.

    The reference stream comes through the shared on-disk trace cache
    (*trace_cache* or ``$REPRO_TRACE_CACHE``) when one is configured — the
    same digest-verified entries the simulation engine uses, so a sweep and
    its characterization generate each trace once between them.  A cached
    entry is streamed off disk in ``O(chunk)`` memory once its digest
    checks out; a missing or rejected one is regenerated (a rejection says
    so on stderr, once per entry) and stored for the next run.
    """
    shape = dict(
        a_threshold=a_threshold,
        m=m,
        interval_accesses=interval_accesses,
        max_intervals=intervals,
    )
    n_accesses = intervals * interval_accesses
    root = resolve_cache_root(trace_cache)
    cache = TraceCache(root) if root else None
    key = benchmark_key(benchmark, num_sets, n_accesses, seed)
    if cache is not None:
        try:
            return characterize_stream(
                cache.stream_addrs(key, DEFAULT_STREAM_CHUNK),
                num_sets,
                name=benchmark,
                **shape,
            )
        except KeyError:
            pass  # a miss: generate and store below
        except ConfigError:
            raise  # bad characterization parameters, not a bad entry
        except ValueError as exc:
            fallback_notice(
                str(exc), source="repro.trace_cache", fallback="a regenerated trace"
            )
    trace = make_benchmark_trace(benchmark, num_sets, n_accesses, seed)
    if cache is not None:
        cache.store(key, [trace])
    return characterize_trace(trace, num_sets, **shape)


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
) -> SurveyRow:
    """One program's survey row (module-level so worker processes can run it)."""
    dist = figure_distribution(
        name,
        num_sets=num_sets,
        intervals=intervals,
        interval_accesses=interval_accesses,
        seed=seed,
        trace_cache=trace_cache,
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
) -> List[SurveyRow]:
    """Characterize all 26 programs and classify their non-uniformity.

    ``jobs >= 1`` fans the programs across that many worker processes via
    :func:`~repro.engine.pool.parallel_map`; rows are returned in benchmark
    order either way, so the output is identical to the serial run.
    *trace_cache* (default ``$REPRO_TRACE_CACHE``) lets the workers share
    generated reference streams on disk, each read back in ``O(chunk)``
    memory (see :func:`figure_distribution`).
    """
    return parallel_map(
        _survey_one,
        [
            (name, num_sets, intervals, interval_accesses, seed, threshold, trace_cache)
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
