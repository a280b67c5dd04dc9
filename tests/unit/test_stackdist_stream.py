"""Unit tests for repro.cache.stackdist_stream (chunked Mattson profiling).

Every test that feeds a profiler runs on both of its steps: the C step and
the no-library Python step.  The oracle is the per-access Mattson spec
(:func:`tests.helpers.spec_hist`).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cache.stackdist import StackDistanceProfiler
from repro.cache.stackdist_stream import (
    DemandProfile,
    StreamingProfiler,
    concat_profiles,
    profile_chunks,
)
from repro.core import _ckernel, compiled
from repro.workloads.spec2000 import make_benchmark_trace
from tests.helpers import on_both_steps, spec_hist, stderr_notices


def chunked(addrs, size):
    return [addrs[i : i + size] for i in range(0, len(addrs), size)]


class TestValidation:
    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ValueError):
            StreamingProfiler(3, 4)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            StreamingProfiler(4, 0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            StreamingProfiler(4, 4, interval_accesses=0)

    def test_max_intervals_requires_fixed_intervals(self):
        with pytest.raises(ValueError):
            StreamingProfiler(4, 4, max_intervals=3)

    def test_cut_rejected_in_fixed_mode(self):
        with pytest.raises(ValueError):
            StreamingProfiler(4, 4, interval_accesses=10).cut()


class TestFixedIntervals:
    @on_both_steps
    def test_matches_spec_on_benchmark_trace(self):
        trace = make_benchmark_trace("ammp", 16, 4_000, seed=3)
        want = spec_hist(trace.addrs, 16, 8, 500)
        got = profile_chunks(chunked(trace.addrs, 333), 16, 8, 500)
        assert (got.hist == want).all()

    @on_both_steps
    def test_chunk_size_is_invisible(self):
        trace = make_benchmark_trace("vortex", 8, 2_000, seed=1)
        profiles = [
            profile_chunks(chunked(trace.addrs, size), 8, 6, 250).hist
            for size in (1, 7, 250, 2_000)
        ]
        for hist in profiles[1:]:
            assert (hist == profiles[0]).all()

    @on_both_steps
    def test_partial_trailing_interval_never_emitted(self):
        prof = StreamingProfiler(2, 4, interval_accesses=10)
        out = prof.feed(np.zeros(25, dtype=np.int64))
        assert out.intervals == 2
        assert prof.emitted_intervals == 2
        assert prof.consumed == 25

    @on_both_steps
    def test_interval_spanning_chunks(self):
        addrs = np.array([0, 0, 0, 0, 0, 0], dtype=np.int64)
        prof = StreamingProfiler(1, 2, interval_accesses=4)
        first = prof.feed(addrs[:3])
        assert first.intervals == 0  # interval still open
        second = prof.feed(addrs[3:])
        assert second.intervals == 1
        assert (second.hist == spec_hist(addrs, 1, 2, 4)).all()

    @on_both_steps
    def test_max_intervals_stops_emission(self):
        trace = make_benchmark_trace("gcc", 8, 3_000, seed=2)
        want = spec_hist(trace.addrs, 8, 8, 200, max_intervals=5)
        got = profile_chunks(chunked(trace.addrs, 170), 8, 8, 200, max_intervals=5)
        assert got.intervals == 5
        assert (got.hist == want).all()

    @on_both_steps
    def test_done_profiler_ignores_feeds(self):
        prof = StreamingProfiler(1, 2, interval_accesses=2, max_intervals=1)
        prof.feed(np.array([5, 5], dtype=np.int64))
        assert prof.done
        assert prof.feed(np.array([5, 5], dtype=np.int64)).intervals == 0

    @on_both_steps
    def test_empty_chunk_is_noop(self):
        prof = StreamingProfiler(2, 4, interval_accesses=4)
        out = prof.feed(np.zeros(0, dtype=np.int64))
        assert out.intervals == 0
        assert prof.consumed == 0


class TestCarryAcrossChunks:
    @on_both_steps
    def test_rereference_across_chunk_boundary_hits(self):
        # Same block in both chunks: the second reference must score as a
        # distance-1 hit even though its window spans the boundary.
        prof = StreamingProfiler(1, 4, interval_accesses=2)
        prof.feed(np.array([9], dtype=np.int64))
        out = prof.feed(np.array([9], dtype=np.int64))
        assert out.hist[0, 0].tolist() == [1, 0, 0, 0]

    @on_both_steps
    def test_depth_truncation_across_boundary(self):
        # d distinct blocks push the first one exactly depth deep; a deeper
        # history (depth+1 blocks) must not resurrect it.
        depth = 3
        prof = StreamingProfiler(1, depth, interval_accesses=8)
        prof.feed(np.array([1, 2, 3, 4], dtype=np.int64))  # 1 now depth+1 deep
        out = prof.feed(np.array([1, 5, 6, 7], dtype=np.int64))
        want = spec_hist(np.array([1, 2, 3, 4, 1, 5, 6, 7]), 1, depth, 8)
        assert (out.hist == want).all()
        assert out.hist.sum() == 0  # the re-reference was beyond depth


class TestCallerCutMode:
    @on_both_steps
    def test_cut_matches_reference_end_interval(self):
        trace = make_benchmark_trace("parser", 8, 1_200, seed=4)
        spec = StackDistanceProfiler(8, 8)
        stream = StreamingProfiler(8, 8)
        for chunk in chunked(trace.addrs, 97):
            spec.reference_many(chunk)
            stream.feed(chunk)
            assert (stream.cut_block_required() == spec.end_interval()).all()

    @on_both_steps
    def test_cut_resets_the_open_interval(self):
        prof = StreamingProfiler(1, 2)
        prof.feed(np.array([3, 3], dtype=np.int64))
        assert prof.cut()[0, 0] == 1
        assert prof.cut().sum() == 0


class TestGoldenProfile:
    """Snapshot pin: the profiler and the spec must reproduce a committed
    profile.

    The property suite ties the profiler's steps to the spec; this golden
    file (captured at PR 4) additionally pins them against drifting
    *together*.
    """

    GOLDEN = (
        Path(__file__).resolve().parents[1] / "data" / "golden_demand_profile_tiny.json"
    )

    def load(self):
        doc = json.loads(self.GOLDEN.read_text())
        trace = make_benchmark_trace(
            doc["benchmark"], doc["num_sets"], doc["n_accesses"], doc["seed"]
        )
        return doc, trace, np.array(doc["hist"], dtype=np.int64)

    @on_both_steps
    def test_streaming_kernel_matches_golden(self):
        doc, trace, want = self.load()
        for size in (173, 250, 1_000):
            got = profile_chunks(
                chunked(trace.addrs, size),
                doc["num_sets"],
                doc["depth"],
                doc["interval_accesses"],
            )
            assert (got.hist == want).all()

    def test_reference_profiler_matches_golden(self):
        doc, trace, want = self.load()
        spec = StackDistanceProfiler(doc["num_sets"], doc["depth"])
        ia = doc["interval_accesses"]
        for i in range(want.shape[0]):
            spec.reference_many(trace.addrs[i * ia : (i + 1) * ia])
            assert (np.stack([s.hist for s in spec.sets]) == want[i]).all()
            spec.end_interval()


class TestConcatProfiles:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat_profiles([])

    def test_shape_mismatch_rejected(self):
        a = DemandProfile(hist=np.zeros((2, 1, 2), dtype=np.int64))
        b = DemandProfile(hist=np.zeros((2, 2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            concat_profiles([a, b])

    def test_concat_orders_slices(self):
        hist = np.arange(3 * 4 * 4, dtype=np.int64).reshape(3, 4, 4)
        slices = [DemandProfile(hist=hist[:1]), DemandProfile(hist=hist[1:])]
        assert (concat_profiles(slices).hist == hist).all()


class TestDemandProfile:
    def test_block_required_no_hits_is_one(self):
        prof = DemandProfile(hist=np.zeros((2, 3, 4), dtype=np.int64))
        assert (prof.block_required() == 1).all()

    def test_block_required_deepest_hit(self):
        hist = np.zeros((1, 1, 8), dtype=np.int64)
        hist[0, 0, 2] = 5
        hist[0, 0, 5] = 1
        prof = DemandProfile(hist=hist)
        assert prof.block_required()[0, 0] == 6

    def test_hit_counts_clip_to_depth(self):
        hist = np.ones((1, 2, 4), dtype=np.int64)
        prof = DemandProfile(hist=hist)
        assert (prof.hit_counts(2) == 2).all()
        assert (prof.hit_counts(99) == 4).all()

    def test_shape_properties(self):
        prof = DemandProfile(hist=np.zeros((5, 8, 32), dtype=np.int64))
        assert (prof.intervals, prof.num_sets, prof.depth) == (5, 8, 32)


class TestFallbackNotice:
    """Without the kernel library the profiler says, once per process, that
    it runs its Python step; with the library it says nothing."""

    #: Two profilers, several feeds each: every feed takes the same step.
    SCRIPT = (
        "import numpy as np\n"
        "from repro.cache.stackdist_stream import StreamingProfiler\n"
        "for _ in range(2):\n"
        "    profiler = StreamingProfiler(16, 8, interval_accesses=100)\n"
        "    for _ in range(3):\n"
        "        profiler.feed(np.arange(250) % 40)\n"
    )

    def _notices(self, **env_knobs):
        return stderr_notices(self.SCRIPT, "repro.profiler:", **env_knobs)

    def test_python_step_announced_once(self):
        assert self._notices(REPRO_NO_CKERNEL="1") == [
            "repro.profiler: C kernel unavailable (disabled by "
            "REPRO_NO_CKERNEL); using the Python step (bit-identical)"
        ]

    @pytest.mark.skipif(not _ckernel.lib_available(),
                        reason="needs the C kernel library")
    def test_c_step_is_silent(self):
        assert self._notices() == []

    def test_forced_python_step_names_its_reason(self, capsys, monkeypatch):
        """The no-library pass of :func:`on_both_steps` names the
        reason the library is hidden, never ``None``: for the profiler and
        for a trace generated inside the test."""
        monkeypatch.setattr(compiled, "_NOTICED", set())

        @on_both_steps
        def profile_a_fresh_trace():
            trace = make_benchmark_trace("vortex", 16, 2000, 0)
            StreamingProfiler(16, 8, interval_accesses=100).feed(trace.addrs)

        profile_a_fresh_trace()
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("repro.")] == [
            "repro.workloads: C kernel unavailable (hidden by the test); "
            "using the NumPy step (bit-identical)",
            "repro.profiler: C kernel unavailable (hidden by the test); "
            "using the Python step (bit-identical)",
        ]
