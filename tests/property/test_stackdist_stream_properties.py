"""Property tests: the streaming profiler is bit-identical to the spec.

Random address streams are cut into random chunk patterns and driven through
:mod:`repro.cache.stackdist_stream`; the emitted slices must concatenate to
exactly the histograms the per-access Mattson spec
(:class:`repro.cache.stackdist.StackDistanceProfiler`, via
:func:`tests.helpers.spec_hist`) accumulates over the whole stream — for
every chunking, interval length, depth and set count.  Caller-cut mode is
held to the spec's ``end_interval`` at arbitrary cut points.  Every draw is
checked on both profiler steps: the C step and the no-library Python step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stackdist import StackDistanceProfiler
from repro.cache.stackdist_stream import StreamingProfiler, profile_chunks
from tests.helpers import on_both_steps, spec_hist

# Small universes force deep reuse (carry-heavy chunks); large ones force
# cold-miss streams — both chunk-boundary regimes get exercised.
streams = st.integers(2, 300).flatmap(
    lambda universe: st.lists(st.integers(0, universe - 1), min_size=1, max_size=500)
)


def cut_into_chunks(addrs, sizes):
    """Split *addrs* by the (cycled) chunk-size pattern *sizes*."""
    chunks, i, k = [], 0, 0
    while i < len(addrs):
        size = sizes[k % len(sizes)]
        chunks.append(addrs[i : i + size])
        i += size
        k += 1
    return chunks


@given(
    addrs=streams,
    sizes=st.lists(st.integers(1, 120), min_size=1, max_size=6),
    # Up to the published 1,024 sets.
    log_sets=st.integers(0, 10),
    depth=st.integers(1, 40),
    interval_accesses=st.integers(1, 120),
)
@settings(max_examples=80, deadline=None)
@on_both_steps
def test_streaming_bit_identical_to_spec(addrs, sizes, log_sets, depth, interval_accesses):
    num_sets = 1 << log_sets
    addrs = np.array(addrs, dtype=np.int64)
    want = spec_hist(addrs, num_sets, depth, interval_accesses)
    got = profile_chunks(
        cut_into_chunks(addrs, sizes), num_sets, depth, interval_accesses
    )
    assert got.hist.shape == want.shape
    assert (got.hist == want).all()


@given(
    addrs=streams,
    sizes=st.lists(st.integers(1, 120), min_size=1, max_size=6),
    log_sets=st.integers(0, 3),
    depth=st.integers(1, 24),
    interval_accesses=st.integers(1, 60),
    max_intervals=st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
@on_both_steps
def test_streaming_max_intervals_matches_spec(
    addrs, sizes, log_sets, depth, interval_accesses, max_intervals
):
    num_sets = 1 << log_sets
    addrs = np.array(addrs, dtype=np.int64)
    want = spec_hist(
        addrs, num_sets, depth, interval_accesses, max_intervals=max_intervals
    )
    got = profile_chunks(
        cut_into_chunks(addrs, sizes),
        num_sets,
        depth,
        interval_accesses,
        max_intervals=max_intervals,
    )
    assert got.hist.shape == want.shape
    assert (got.hist == want).all()


@given(
    addrs=streams,
    sizes=st.lists(st.integers(1, 90), min_size=1, max_size=5),
    log_sets=st.integers(0, 3),
    depth=st.integers(1, 24),
)
@settings(max_examples=40, deadline=None)
@on_both_steps
def test_caller_cut_matches_reference_profiler(addrs, sizes, log_sets, depth):
    """cut() at arbitrary chunk boundaries == the spec's end_interval."""
    num_sets = 1 << log_sets
    addrs = np.array(addrs, dtype=np.int64)
    spec = StackDistanceProfiler(num_sets, depth)
    stream = StreamingProfiler(num_sets, depth)
    for chunk in cut_into_chunks(addrs, sizes):
        spec.reference_many(chunk)
        stream.feed(chunk)
        spec_hists = np.stack([s.hist for s in spec.sets])
        assert (stream.cut() == spec_hists).all()
        spec.end_interval()
