"""Bench PROFILER: the production stack-distance profiler vs the Mattson spec.

A survey-scale profiling run (the Section 2 characterization workload) over
three demand shapes — ammp (Figure 1, bimodal), vortex (Figure 2, phased)
and applu (Figure 3, streaming) — timing the path ``characterize_trace``
takes, :func:`repro.cache.stackdist_stream.profile_chunks` over
:data:`~repro.analysis.demand.DEFAULT_STREAM_CHUNK`-address views of the
trace with the C step, against the per-access
:class:`repro.cache.stackdist.StackDistanceProfiler`.  The two must agree
bit-for-bit on every per-interval histogram and derived
``block_required``; the profiler must clear a >= 3x speedup.  Without the
kernel library the bench is skipped: it times the production path, not the
Python fallback.  Measurements are persisted to ``BENCH_profiler.json``
(the ``fast_*`` keys time the profiler).
"""

import math
import time

import numpy as np
import pytest

from repro.analysis.demand import DEFAULT_STREAM_CHUNK
from repro.cache.stackdist import StackDistanceProfiler
from repro.cache.stackdist_stream import profile_chunks
from repro.core import _ckernel
from repro.workloads.spec2000 import make_benchmark_trace

PROGRAMS = ("ammp", "vortex", "applu")
DEPTH = 32


def _reference_profile(addrs, num_sets, depth, interval_accesses):
    """Per-interval histograms + block_required via the executable spec."""
    profiler = StackDistanceProfiler(num_sets, depth)
    n_intervals = len(addrs) // interval_accesses
    hist = np.empty((n_intervals, num_sets, depth), dtype=np.int64)
    required = np.empty((n_intervals, num_sets), dtype=np.int64)
    for i in range(n_intervals):
        profiler.reference_many(addrs[i * interval_accesses : (i + 1) * interval_accesses])
        hist[i] = [s.hist for s in profiler.sets]
        required[i] = profiler.end_interval()
    return hist, required


def _best_of(fn, repeats: int = 3):
    best, result = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.benchmark(group="profiler")
def test_profiler_speedup(scale, bench_json, relax_timing):
    if not _ckernel.lib_available():
        pytest.skip(f"C kernel library unavailable ({_ckernel.reason()}): "
                    "the bench times the profiler's C step")
    num_sets = scale.char_sets
    interval_accesses = scale.char_interval_accesses
    n = scale.char_intervals * interval_accesses

    rows = {}
    print()
    for name in PROGRAMS:
        addrs = make_benchmark_trace(name, num_sets, n, seed=0).addrs
        t0 = time.perf_counter()
        ref_hist, ref_required = _reference_profile(addrs, num_sets, DEPTH, interval_accesses)
        ref_s = time.perf_counter() - t0
        views = [addrs[i : i + DEFAULT_STREAM_CHUNK]
                 for i in range(0, n, DEFAULT_STREAM_CHUNK)]
        fast_s, profile = _best_of(
            lambda: profile_chunks(views, num_sets, DEPTH, interval_accesses)
        )
        assert (profile.hist == ref_hist).all(), f"{name}: histograms diverge"
        assert (profile.block_required() == ref_required).all(), name
        rows[name] = {
            "references": n,
            "ref_s": ref_s,
            "fast_s": fast_s,
            "speedup": ref_s / fast_s,
            "fast_refs_per_s": n / fast_s,
        }
        print(f"{name}: ref={ref_s:.3f}s fast={fast_s:.3f}s "
              f"speedup={ref_s / fast_s:.2f}x ({n / fast_s:,.0f} refs/s)")
    geomean = math.exp(sum(math.log(r["speedup"]) for r in rows.values()) / len(rows))
    print(f"geomean speedup: {geomean:.2f}x")
    bench_json("profiler", {
        "programs": rows,
        "geomean_speedup": geomean,
        "num_sets": num_sets,
        "depth": DEPTH,
        "interval_accesses": interval_accesses,
    })

    if relax_timing:
        pytest.skip("REPRO_BENCH_RELAX set: speedups recorded, assertions skipped")
    assert rows["ammp"]["speedup"] >= 3.0, rows["ammp"]
    assert geomean >= 3.0, f"geomean speedup {geomean:.2f}x < 3x"
    assert all(r["speedup"] > 1.5 for r in rows.values()), rows
