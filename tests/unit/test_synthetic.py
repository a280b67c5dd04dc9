"""Unit tests for repro.workloads.synthetic."""

import numpy as np
import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.core import _ckernel
from repro.workloads.synthetic import Band, Phase, WorkloadSpec, draw_demand_map, generate_trace
from tests.helpers import stderr_notices


def simple_spec(**kw):
    defaults = dict(
        name="toy",
        phases=(Phase(bands=(Band(1.0, 4, 4),), random_frac=0.0, stream_frac=0.0),),
        write_fraction=0.0,
        mean_gap=5.0,
    )
    defaults.update(kw)
    return WorkloadSpec(**defaults)


class TestValidation:
    def test_band_bounds(self):
        with pytest.raises(ConfigError):
            Band(1.0, 0, 4)
        with pytest.raises(ConfigError):
            Band(1.0, 5, 4)
        with pytest.raises(ConfigError):
            Band(-1.0, 1, 4)

    def test_phase_fractions(self):
        with pytest.raises(ConfigError):
            Phase(bands=(Band(1, 1, 2),), stream_frac=0.6, random_frac=0.6)
        with pytest.raises(ConfigError):
            Phase(bands=())

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            simple_spec(write_fraction=2.0)
        with pytest.raises(ConfigError):
            simple_spec(mean_gap=0.5)
        with pytest.raises(ConfigError):
            WorkloadSpec(name="x", phases=())

    def test_generate_needs_positive_accesses(self):
        with pytest.raises(ConfigError):
            generate_trace(simple_spec(), 16, 0)


class TestDemandMap:
    def test_in_band_range(self):
        rng = np.random.default_rng(0)
        w = draw_demand_map((Band(1.0, 3, 7),), 64, rng)
        assert w.min() >= 3 and w.max() <= 7

    def test_band_weights_respected(self):
        rng = np.random.default_rng(0)
        w = draw_demand_map((Band(0.5, 1, 1), Band(0.5, 30, 30)), 4096, rng)
        low = (w == 1).mean()
        assert 0.45 < low < 0.55

    def test_all_sets_assigned(self):
        rng = np.random.default_rng(0)
        w = draw_demand_map((Band(0.3, 1, 4), Band(0.7, 17, 32)), 128, rng)
        assert len(w) == 128
        assert ((1 <= w) & (w <= 32)).all()


class TestGenerateTrace:
    def test_length_and_fields(self):
        t = generate_trace(simple_spec(), 16, 500, seed=1)
        assert len(t) == 500
        assert (t.gaps >= 1).all()

    def test_deterministic_per_seed(self):
        a = generate_trace(simple_spec(), 16, 200, seed=5)
        b = generate_trace(simple_spec(), 16, 200, seed=5)
        assert (a.addrs == b.addrs).all()

    def test_different_seeds_differ(self):
        a = generate_trace(simple_spec(), 16, 200, seed=5)
        b = generate_trace(simple_spec(), 16, 200, seed=6)
        assert not (a.addrs == b.addrs).all()

    def test_demand_map_shared_across_seeds(self):
        """Instance seed must not change the intrinsic per-set demand."""
        spec = WorkloadSpec(
            name="shared",
            phases=(Phase(bands=(Band(0.5, 1, 2), Band(0.5, 8, 10)), random_frac=0.0),),
        )
        a = generate_trace(spec, 16, 4000, seed=1)
        b = generate_trace(spec, 16, 4000, seed=2)
        # Per-set footprints (distinct blocks) should agree (same W map).
        for s in range(16):
            fa = np.unique(a.addrs[(a.addrs % 16) == s]).size
            fb = np.unique(b.addrs[(b.addrs % 16) == s]).size
            assert abs(fa - fb) <= 1

    def test_cyclic_working_set_size(self):
        """Pure cyclic: per-set distinct blocks == W exactly."""
        spec = simple_spec()  # W=4 cyclic
        t = generate_trace(spec, 8, 4000, seed=0)
        for s in range(8):
            blocks = np.unique(t.addrs[(t.addrs % 8) == s])
            assert len(blocks) == 4

    def test_streaming_never_repeats(self):
        spec = WorkloadSpec(
            name="stream",
            phases=(Phase(bands=(Band(1.0, 1, 1),), stream_frac=1.0, random_frac=0.0),),
        )
        t = generate_trace(spec, 4, 1000, seed=0)
        assert np.unique(t.addrs).size == 1000

    def test_write_fraction_approximate(self):
        t = generate_trace(simple_spec(write_fraction=0.3), 16, 5000, seed=0)
        assert 0.25 < t.write_fraction < 0.35

    def test_mean_gap_approximate(self):
        t = generate_trace(simple_spec(mean_gap=20.0), 16, 5000, seed=0)
        assert 18 < t.gaps.mean() < 22

    def test_phases_concatenate(self):
        spec = WorkloadSpec(
            name="ph",
            phases=(
                Phase(bands=(Band(1, 1, 1),), duration=0.5, random_frac=0.0),
                Phase(bands=(Band(1, 8, 8),), duration=0.5, random_frac=0.0),
            ),
        )
        t = generate_trace(spec, 8, 2000, seed=0)
        assert len(t) == 2000
        first = np.unique(t.addrs[:900]).size
        second = np.unique(t.addrs[1100:]).size
        assert second > first  # bigger working set in phase 2

    def test_mean_demand_and_footprint(self):
        spec = WorkloadSpec(
            name="fp",
            phases=(Phase(bands=(Band(0.5, 2, 2), Band(0.5, 10, 10)),),),
        )
        assert spec.mean_demand(64) == pytest.approx(6.0)
        assert spec.footprint_bytes(64, 64) == pytest.approx(6.0 * 64 * 64)


def _draws(n=100, num_sets=16):
    """One phase's draws, as ``_generate_phase`` makes them, plus its
    demand map and an output column."""
    rng = np.random.default_rng(5)
    wmap = rng.integers(1, 9, size=num_sets)
    return dict(sets=rng.integers(0, num_sets, size=n), kind=rng.random(n),
                pick=rng.random(n), wmap=wmap, out=np.empty(n, np.int64))


def _fill(d, stream_base=1 << 20):
    _ckernel.trace_fill(d["sets"], d["kind"], d["pick"], d["wmap"], 0.1, 0.6,
                        stream_base, d["out"])


class TestTraceFillEntryCheck:
    """The C step refuses, by argument name, an input it would misread,
    before any C code runs."""

    @pytest.fixture(autouse=True)
    def unreachable_c_step(self, monkeypatch):
        if not _ckernel.lib_available():
            pytest.skip(f"C kernel unavailable ({_ckernel.reason()})")

        def trace_fill(*args):
            raise AssertionError("the C step ran on an unchecked input")

        monkeypatch.setattr(_ckernel._get_lib(), "trace_fill", trace_fill)

    @pytest.mark.parametrize("corrupt,message", [
        (lambda d: d["sets"].__setitem__(7, 16),
         r"argument 'sets': entries span \[0, 16\], the demand map covers \[0, 15\]"),
        (lambda d: d["sets"].__setitem__(3, -1),
         r"argument 'sets': entries span \[-1, 15\]"),
        (lambda d: d["wmap"].__setitem__(5, 0),
         r"argument 'wmap': working sets span \[0, 8\], each must be at least 1"),
        (lambda d: d.update(sets=d["sets"][:-1]),
         r"argument 'sets': 99 elements, the output implies at least 100"),
        (lambda d: d.update(sets=d["sets"].astype(np.float64)),
         r"argument 'sets': dtype float64, the kernel reads int64"),
        (lambda d: d.update(pick=np.repeat(d["pick"], 2)[::2]),
         r"argument 'pick' is not C-contiguous"),
        (lambda d: d.update(wmap=d["wmap"][:0]),
         r"argument 'wmap': 0 elements, a demand map needs at least 1"),
    ], ids=["set_is_num_sets", "negative_set", "zero_working_set", "short_sets",
            "float_sets", "strided_pick", "empty_wmap"])
    def test_bad_argument_is_refused_by_name(self, corrupt, message):
        draws = _draws()
        corrupt(draws)
        with pytest.raises(SimulationError, match=message):
            _fill(draws)

    def test_address_past_2_pow_63_is_refused(self):
        with pytest.raises(SimulationError, match=r"addresses past 2\*\*63"):
            _fill(_draws(), stream_base=1 << 60)


class TestFallbackNotice:
    """Without the kernel library the generator says, once per process, that
    it runs its NumPy step; with the library it says nothing."""

    #: Two traces of a three-phase profile: every phase takes the same step.
    SCRIPT = (
        "from repro.workloads.spec2000 import make_benchmark_trace\n"
        "for seed in range(2):\n"
        "    make_benchmark_trace('vortex', 16, 2000, seed)\n"
    )

    def _notices(self, **env_knobs):
        return stderr_notices(self.SCRIPT, "repro.workloads:", **env_knobs)

    def test_numpy_step_announced_once(self):
        assert self._notices(REPRO_NO_CKERNEL="1") == [
            "repro.workloads: C kernel unavailable (disabled by "
            "REPRO_NO_CKERNEL); using the NumPy step (bit-identical)"
        ]

    @pytest.mark.skipif(not _ckernel.lib_available(),
                        reason="needs the C kernel library")
    def test_c_step_is_silent(self):
        assert self._notices() == []
