"""Unit tests for repro.analysis.demand (Formulas 1-5)."""

import numpy as np
import pytest

from repro.analysis.demand import (
    DEFAULT_STREAM_CHUNK,
    DemandDistribution,
    bucket_bounds,
    bucket_of,
    characterize_trace,
)
from repro.cache.stackdist import StackDistanceProfiler
from repro.common.errors import ConfigError
from repro.core import _ckernel
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace import Trace
from tests.helpers import on_both_steps


class TestBuckets:
    def test_paper_buckets(self):
        """A_threshold=32, M=8 gives {[1,4], [5,8], ..., [29,32]} (Sec. 2.2)."""
        bounds = bucket_bounds(32, 8)
        assert bounds[0] == (1, 4)
        assert bounds[1] == (5, 8)
        assert bounds[-1] == (29, 32)
        assert len(bounds) == 8

    def test_buckets_partition_range(self):
        bounds = bucket_bounds(32, 8)
        covered = [v for lo, hi in bounds for v in range(lo, hi + 1)]
        assert covered == list(range(1, 33))

    def test_bucket_of(self):
        assert bucket_of(1, 32, 8) == 0
        assert bucket_of(4, 32, 8) == 0
        assert bucket_of(5, 32, 8) == 1
        assert bucket_of(32, 32, 8) == 7
        assert bucket_of(100, 32, 8) == 7  # clipped

    def test_bucket_of_invalid(self):
        with pytest.raises(ValueError):
            bucket_of(0, 32, 8)

    def test_non_pow2_rejected(self):
        with pytest.raises(ConfigError):
            bucket_bounds(30, 8)
        with pytest.raises(ConfigError):
            bucket_bounds(32, 6)

    def test_more_buckets_than_range_rejected(self):
        with pytest.raises(ConfigError):
            bucket_bounds(8, 16)


def cyclic_trace(num_sets, w, n):
    """Every set cycles over w blocks."""
    addrs = []
    ptr = [0] * num_sets
    for i in range(n):
        s = i % num_sets
        addrs.append(ptr[s] * num_sets + s)
        ptr[s] = (ptr[s] + 1) % w
    return Trace(np.ones(n, dtype=int), np.array(addrs), np.zeros(n, dtype=bool), name="cyc")


class TestCharacterize:
    def test_rows_sum_to_one(self):
        t = make_benchmark_trace("gzip", 16, 6000, seed=0)
        dist = characterize_trace(t, 16, interval_accesses=1000)
        assert np.allclose(dist.sizes.sum(axis=1), 1.0)

    def test_known_cyclic_demand(self):
        t = cyclic_trace(8, w=6, n=8000)
        dist = characterize_trace(t, 8, interval_accesses=2000)
        # After warmup intervals, every set requires exactly 6 blocks.
        assert (dist.demand[-1] == 6).all()
        assert dist.sizes[-1][bucket_of(6, 32, 8)] == 1.0

    def test_streaming_demand_is_one(self):
        n = 4000
        addrs = np.arange(n)  # never reused
        t = Trace(np.ones(n, dtype=int), addrs, np.zeros(n, dtype=bool))
        dist = characterize_trace(t, 16, interval_accesses=1000)
        assert (dist.demand == 1).all()

    def test_interval_count(self):
        t = make_benchmark_trace("gzip", 16, 5500, seed=0)
        dist = characterize_trace(t, 16, interval_accesses=1000)
        assert dist.intervals == 5
        dist2 = characterize_trace(t, 16, interval_accesses=1000, max_intervals=3)
        assert dist2.intervals == 3

    def test_too_short_trace_rejected(self):
        t = cyclic_trace(4, 2, 10)
        with pytest.raises(ConfigError):
            characterize_trace(t, 4, interval_accesses=1000)

    def test_giver_taker_fractions(self):
        demand = np.array([[2, 2, 30, 30]])
        sizes = np.array([[0.5, 0, 0, 0, 0, 0, 0, 0.5]])
        dist = DemandDistribution("x", 32, 8, sizes, demand)
        assert dist.giver_fraction() == 0.5
        assert dist.taker_fraction() == 0.5
        assert dist.nonuniformity_score() == 0.5
        assert dist.is_non_uniform()

    def test_uniform_low_scores_zero(self):
        demand = np.full((3, 8), 2)
        sizes = np.zeros((3, 8))
        sizes[:, 0] = 1.0
        dist = DemandDistribution("applu-ish", 32, 8, sizes, demand)
        assert dist.taker_fraction() == 0.0
        assert not dist.is_non_uniform()

    def test_mean_sizes(self):
        sizes = np.array([[1.0] + [0.0] * 7, [0.0, 1.0] + [0.0] * 6])
        dist = DemandDistribution("m", 32, 8, sizes, np.ones((2, 4)))
        assert dist.mean_sizes()[0] == 0.5
        assert dist.mean_sizes()[1] == 0.5


def spec_distribution(addrs, num_sets, intervals, interval_accesses, a_threshold=32, m=8):
    """Formulas 3 and 5 from the per-access Mattson spec: the demand
    matrix from ``end_interval`` and each row's bucket shares counted
    through :func:`bucket_of`."""
    spec = StackDistanceProfiler(num_sets, a_threshold)
    demand = np.empty((intervals, num_sets), dtype=np.int64)
    sizes = np.zeros((intervals, m))
    for i in range(intervals):
        spec.reference_many(addrs[i * interval_accesses : (i + 1) * interval_accesses])
        demand[i] = spec.end_interval()
        for d in demand[i].tolist():
            sizes[i, bucket_of(d, a_threshold, m)] += 1
    return demand, sizes / num_sets


class TestCharacterizeMatchesSpec:
    # The 1,024-set case is 70,000 references: it crosses the 65,536-address
    # chunk boundary inside an interval.
    @pytest.mark.parametrize("num_sets,intervals,interval_accesses",
                             [(64, 6, 2_000), (1_024, 7, 10_000)])
    @pytest.mark.parametrize("program", ["ammp", "vortex", "applu"])
    @on_both_steps
    def test_equals_spec_distribution(self, program, num_sets, intervals,
                                      interval_accesses):
        trace = make_benchmark_trace(
            program, num_sets, intervals * interval_accesses, seed=1)
        dist = characterize_trace(
            trace, num_sets, interval_accesses=interval_accesses)
        demand, sizes = spec_distribution(
            trace.addrs, num_sets, intervals, interval_accesses)
        assert dist.name == program
        assert (dist.demand == demand).all()
        assert (dist.sizes == sizes).all()

    @pytest.mark.skipif(not _ckernel.lib_available(),
                        reason="C kernel unavailable")
    def test_runs_the_c_step(self, monkeypatch):
        # Every reference goes through the library's profile_feed: a fall
        # to the Python step would leave the count short.
        fed = []
        profile_feed = _ckernel.profile_feed

        def counting_feed(addrs, *carry):
            fed.append(addrs.size)
            return profile_feed(addrs, *carry)

        monkeypatch.setattr(_ckernel, "profile_feed", counting_feed)
        n = DEFAULT_STREAM_CHUNK + 4_000
        trace = make_benchmark_trace("vortex", 64, n, seed=0)
        dist = characterize_trace(trace, 64, interval_accesses=2_000)
        assert dist.intervals == n // 2_000
        assert sum(fed) == n
