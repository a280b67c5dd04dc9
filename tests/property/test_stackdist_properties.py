"""Property tests: the production profiler is bit-identical to the spec.

Random address streams drive both :mod:`repro.cache.stackdist` (the
per-access Mattson stacks — the executable spec) and
:func:`repro.cache.stackdist_stream.profile_chunks` (the production
profiler, on both of its steps: the C step and the no-library Python step),
asserting identical per-interval histograms, ``block_required`` and
``hit_count(A)`` for every associativity ``A <= depth``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stackdist import StackDistanceProfiler
from repro.cache.stackdist_stream import profile_chunks
from tests.helpers import on_both_steps

# Small address universes force deep reuse; large ones force long windows
# and cold-miss-heavy streams — both profiler regimes get exercised.
streams = st.integers(2, 400).flatmap(
    lambda universe: st.lists(st.integers(0, universe - 1), min_size=1, max_size=600)
)


@given(
    addrs=streams,
    log_sets=st.integers(0, 4),
    depth=st.integers(1, 40),
    interval_accesses=st.integers(1, 120),
    chunk=st.integers(1, 600),
)
@settings(max_examples=80, deadline=None)
@on_both_steps
def test_profile_chunks_bit_identical_to_spec(
    addrs, log_sets, depth, interval_accesses, chunk
):
    num_sets = 1 << log_sets
    addrs = np.array(addrs, dtype=np.int64)
    n_intervals = addrs.size // interval_accesses

    spec = StackDistanceProfiler(num_sets, depth)
    spec_hist = np.empty((n_intervals, num_sets, depth), dtype=np.int64)
    spec_required = np.empty((n_intervals, num_sets), dtype=np.int64)
    spec_hits = np.empty((n_intervals, num_sets, depth), dtype=np.int64)
    for i in range(n_intervals):
        for a in addrs[i * interval_accesses : (i + 1) * interval_accesses]:
            spec.reference(int(a))
        spec_hist[i] = [s.hist for s in spec.sets]
        for assoc in range(1, depth + 1):
            spec_hits[i, :, assoc - 1] = spec.hit_counts(assoc)
        spec_required[i] = spec.end_interval()

    chunks = [addrs[i : i + chunk] for i in range(0, addrs.size, chunk)]
    profile = profile_chunks(chunks, num_sets, depth, interval_accesses)
    assert profile.hist.shape == spec_hist.shape
    assert (profile.hist == spec_hist).all()
    assert (profile.block_required() == spec_required).all()
    for assoc in range(1, depth + 1):
        assert (profile.hit_counts(assoc) == spec_hits[:, :, assoc - 1]).all()
