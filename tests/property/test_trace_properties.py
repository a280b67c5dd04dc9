"""Property tests for trace generation.

``TestGeneratorOracle`` pins the phase generator to the seed's scalar
per-access loop, kept below verbatim as the oracle: the trace cache keys
entries by generator inputs, not outputs, so the two must agree element for
element.  It runs on whichever step the process has (the C step with the
kernel library, the NumPy step without it); ``TestFillSteps`` holds the two
steps to each other on the same draws.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _ckernel
from repro.workloads import synthetic
from repro.workloads.spec2000 import benchmark_names, get_profile
from repro.workloads.synthetic import (
    _STREAM_TAG_BASE,
    Band,
    Phase,
    WorkloadSpec,
    draw_demand_map,
    generate_trace,
)

specs = st.builds(
    lambda lo, span, stream, rand, wf, gap: WorkloadSpec(
        name="prop",
        phases=(
            Phase(
                bands=(Band(1.0, lo, lo + span),),
                stream_frac=stream,
                random_frac=min(rand, 1.0 - stream),
            ),
        ),
        write_fraction=wf,
        mean_gap=gap,
    ),
    lo=st.integers(min_value=1, max_value=20),
    span=st.integers(min_value=0, max_value=12),
    stream=st.floats(min_value=0.0, max_value=0.5),
    rand=st.floats(min_value=0.0, max_value=0.5),
    wf=st.floats(min_value=0.0, max_value=1.0),
    gap=st.floats(min_value=1.0, max_value=60.0),
)


class TestGeneratedTraces:
    @given(specs, st.integers(min_value=0, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_always_valid(self, spec, seed):
        t = generate_trace(spec, 16, 400, seed=seed)
        assert len(t) == 400
        assert (t.gaps >= 1).all()
        assert (t.addrs >= 0).all()

    @given(specs)
    @settings(max_examples=30, deadline=None)
    def test_seed_zero_deterministic(self, spec):
        a = generate_trace(spec, 16, 200, seed=0)
        b = generate_trace(spec, 16, 200, seed=0)
        assert (a.addrs == b.addrs).all()
        assert (a.gaps == b.gaps).all()
        assert (a.writes == b.writes).all()

    @given(specs, st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_footprint_bounded_by_demand_plus_streams(self, spec, seed):
        """Non-stream blocks per set never exceed the drawn W_s <= hi."""
        t = generate_trace(spec, 16, 600, seed=seed)
        band = spec.phases[0].bands[0]
        loop_addrs = t.addrs[t.addrs < (1 << 20) * 16]
        for s in range(16):
            in_set = np.unique(loop_addrs[(loop_addrs % 16) == s])
            assert len(in_set) <= band.hi

    @given(specs, st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_stream_addresses_unique(self, spec, seed):
        t = generate_trace(spec, 16, 600, seed=seed)
        stream_addrs = t.addrs[t.addrs >= (1 << 20) * 16]
        assert len(np.unique(stream_addrs)) == len(stream_addrs)


def _scalar_generate_phase(
    phase: Phase,
    num_sets: int,
    n_accesses: int,
    demand_rng: np.random.Generator,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate the block-address stream for one phase."""
    wmap = draw_demand_map(phase.bands, num_sets, demand_rng)
    sets = rng.integers(0, num_sets, size=n_accesses)
    kind = rng.random(n_accesses)
    rand_pick = rng.random(n_accesses)
    stream_cut = phase.stream_frac
    random_cut = phase.stream_frac + phase.random_frac

    cyc_ptr = np.zeros(num_sets, dtype=np.int64)
    stream_ptr = np.full(num_sets, _STREAM_TAG_BASE, dtype=np.int64)
    addrs = np.empty(n_accesses, dtype=np.int64)

    # Hot loop: per-access pattern dispatch with per-set pointer state.
    # Arrays are pre-drawn above so the loop is branch + arithmetic only.
    for i in range(n_accesses):
        s = int(sets[i])
        k = kind[i]
        if k < stream_cut:
            tag = int(stream_ptr[s])
            stream_ptr[s] += 1
        elif k < random_cut:
            tag = int(rand_pick[i] * wmap[s])
        else:
            tag = int(cyc_ptr[s])
            nxt = tag + 1
            cyc_ptr[s] = 0 if nxt >= wmap[s] else nxt
        addrs[i] = tag * num_sets + s
    return addrs


def assert_matches_scalar_oracle(spec, num_sets, n_accesses, seed):
    fast = generate_trace(spec, num_sets, n_accesses, seed=seed)
    with mock.patch.object(synthetic, "_generate_phase", _scalar_generate_phase):
        oracle = generate_trace(spec, num_sets, n_accesses, seed=seed)
    np.testing.assert_array_equal(fast.addrs, oracle.addrs)
    np.testing.assert_array_equal(fast.gaps, oracle.gaps)
    np.testing.assert_array_equal(fast.writes, oracle.writes)


bands = st.one_of(
    st.just(Band(1.0, 1, 1)),  # W_s = 1: every cyclic access is tag 0
    st.builds(
        lambda weight, lo, span: Band(weight, lo, lo + span),
        st.floats(min_value=0.1, max_value=4.0),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=24),
    ),
)

fractions = st.one_of(st.sampled_from((0.0, 1.0)),
                      st.floats(min_value=0.0, max_value=1.0))

phases = st.builds(
    lambda bands, duration, stream, rand: Phase(
        bands=tuple(bands),
        duration=duration,
        stream_frac=stream,
        random_frac=min(rand, 1.0 - stream),
    ),
    st.lists(bands, min_size=1, max_size=3),
    st.floats(min_value=0.1, max_value=3.0),
    fractions,
    fractions,
)


class TestGeneratorOracle:
    """The generator matches the scalar loop element for element."""

    @given(
        st.lists(phases, min_size=1, max_size=3),
        st.integers(min_value=1, max_value=1024),
        st.integers(min_value=1, max_value=5_000),
        st.integers(min_value=0, max_value=2**16),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_drawn_phases_match_scalar_loop(self, phase_list, num_sets,
                                            n_accesses, seed, write_fraction):
        spec = WorkloadSpec(name=f"oracle{seed % 7}", phases=tuple(phase_list),
                            write_fraction=write_fraction)
        assert_matches_scalar_oracle(spec, num_sets, n_accesses, seed)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_spec_profiles_match_scalar_loop(self, name):
        assert_matches_scalar_oracle(get_profile(name), 64, 25_000, seed=3)


@pytest.mark.skipif(not _ckernel.lib_available(),
                    reason="needs the C kernel library")
class TestFillSteps:
    """The C step and the NumPy step write the same addresses from the same
    draws, cuts at the draws' bounds included."""

    @given(
        st.integers(min_value=1, max_value=1024),
        st.integers(min_value=0, max_value=3_000),
        st.integers(min_value=1, max_value=64),
        fractions,
        fractions,
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_c_step_matches_numpy_step(self, num_sets, n, w_hi, stream, rand,
                                       seed):
        rng = np.random.default_rng(seed)
        wmap = rng.integers(1, w_hi + 1, size=num_sets)
        draws = (rng.integers(0, num_sets, size=n), rng.random(n),
                 rng.random(n), wmap, stream, stream + min(rand, 1.0 - stream),
                 _STREAM_TAG_BASE)
        c_out, numpy_out = np.empty(n, np.int64), np.empty(n, np.int64)
        _ckernel.trace_fill(*draws, c_out)
        synthetic._trace_fill_numpy(*draws, numpy_out)
        np.testing.assert_array_equal(c_out, numpy_out)
