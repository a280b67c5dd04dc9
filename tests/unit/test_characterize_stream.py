"""Streaming characterization: bounded-memory path, bit-identical results."""

import io
import zipfile

import numpy as np
import pytest

from repro.analysis.demand import (
    DEFAULT_STREAM_CHUNK,
    characterize_stream,
    characterize_trace,
    iter_addr_chunks,
)
from repro.common.errors import ConfigError
from repro.experiments import characterization
from repro.experiments.characterization import figure_distribution
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace_cache import TraceCache, benchmark_key


def test_characterize_stream_matches_batch():
    trace = make_benchmark_trace("ammp", 16, 6_000, seed=2)
    want = characterize_trace(trace, 16, interval_accesses=500)
    got = characterize_stream(
        iter_addr_chunks(trace, 777),
        16,
        name=trace.name,
        interval_accesses=500,
    )
    assert got.name == trace.name
    assert (got.demand == want.demand).all()
    assert (got.sizes == want.sizes).all()


def test_characterize_stream_max_intervals():
    trace = make_benchmark_trace("vortex", 8, 4_000, seed=1)
    want = characterize_trace(trace, 8, interval_accesses=300, max_intervals=5)
    got = characterize_stream(
        iter_addr_chunks(trace, 191), 8, interval_accesses=300, max_intervals=5
    )
    assert got.intervals == 5
    assert (got.demand == want.demand).all()


def test_characterize_stream_too_short_rejected():
    with pytest.raises(ConfigError):
        characterize_stream([np.zeros(5, dtype=np.int64)], 4, interval_accesses=100)


def test_iter_addr_chunks_validates_chunk():
    trace = make_benchmark_trace("gzip", 4, 200, seed=0)
    with pytest.raises(ConfigError):
        list(iter_addr_chunks(trace, 0))


class TestStreamAddrs:
    def seed_entry(self, tmp_path, name="gcc", num_sets=8, n=2_000, seed=3):
        cache = TraceCache(tmp_path)
        trace = make_benchmark_trace(name, num_sets, n, seed)
        key = benchmark_key(name, num_sets, n, seed)
        cache.store(key, [trace])
        return cache, key, trace

    def test_chunks_reassemble_to_addrs(self, tmp_path):
        cache, key, trace = self.seed_entry(tmp_path)
        chunks = list(cache.stream_addrs(key, 300))
        assert all(len(c) <= 300 for c in chunks)
        assert (np.concatenate(chunks) == trace.addrs).all()
        assert cache.hits == 1

    def test_missing_entry_raises_keyerror(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = benchmark_key("gcc", 8, 100, 0)
        with pytest.raises(KeyError):
            list(cache.stream_addrs(key, 10))
        assert cache.misses == 1

    def test_corrupt_entry_rejected(self, tmp_path):
        cache, key, _trace = self.seed_entry(tmp_path)
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError):
            list(cache.stream_addrs(key, 100))
        assert cache.rejected == 1
        assert cache.hits == 0  # a mid-stream failure is not a hit

    def test_foreign_dtype_rejected_not_converted(self, tmp_path):
        # A hand-built/foreign entry with a non-int64 addrs member must be
        # rejected (regenerating fallback), never silently value-converted.
        cache, key, trace = self.seed_entry(tmp_path)
        path = cache.path_for(key)
        with zipfile.ZipFile(path) as archive:
            members = {n: archive.read(n) for n in archive.namelist()}
        buf = io.BytesIO()
        np.save(buf, trace.addrs.astype(np.float64))
        members["addrs_0.npy"] = buf.getvalue()
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        with pytest.raises(ValueError):
            list(cache.stream_addrs(key, 100))
        assert cache.rejected == 1

    def test_bad_chunk_rejected(self, tmp_path):
        cache, key, _trace = self.seed_entry(tmp_path)
        with pytest.raises(ValueError):
            next(iter(cache.stream_addrs(key, 0)))

    def test_tampered_entry_rejected_before_first_chunk(self, tmp_path):
        # A well-formed entry (valid archive, right key echo and headers)
        # whose addresses changed under the old digest yields no chunk.
        cache, key, trace = self.seed_entry(tmp_path)
        rewrite_addrs(cache.path_for(key), trace.addrs + 1)
        chunks = cache.stream_addrs(key, 100)
        with pytest.raises(ValueError, match="content digest mismatch"):
            next(chunks)
        assert (cache.hits, cache.rejected, cache.misses) == (0, 1, 1)


class TestFigureDistributionStreaming:
    KWARGS = dict(num_sets=16, intervals=6, interval_accesses=400, seed=5)
    N = 6 * 400  # intervals x interval_accesses

    @pytest.fixture(autouse=True)
    def no_env_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)

    def trace(self, name):
        return make_benchmark_trace(name, 16, self.N, 5)

    def want(self, name):
        return characterize_trace(self.trace(name), 16, interval_accesses=400)

    def key(self, name):
        return benchmark_key(name, 16, self.N, 5)

    def test_stream_matches_batch_without_cache(self):
        got = figure_distribution("ammp", **self.KWARGS)
        want = self.want("ammp")
        assert got.name == "ammp"
        assert (got.demand == want.demand).all()
        assert (got.sizes == want.sizes).all()

    def test_stream_reads_cache_entry_from_disk(self, tmp_path, monkeypatch):
        want = self.want("vortex")
        cold = figure_distribution("vortex", trace_cache=str(tmp_path), **self.KWARGS)
        assert (cold.demand == want.demand).all()
        # The cold run stored the entry; the warm run streams it off disk
        # in DEFAULT_STREAM_CHUNK pieces and never generates the trace.
        assert TraceCache(tmp_path).path_for(self.key("vortex")).is_file()
        streamed = []
        stream_addrs = TraceCache.stream_addrs

        def spy(cache, key, chunk_accesses):
            assert chunk_accesses == DEFAULT_STREAM_CHUNK
            for chunk in stream_addrs(cache, key, chunk_accesses):
                streamed.append(len(chunk))
                yield chunk

        def boom(*args, **kwargs):
            raise AssertionError("regenerated a cached trace")

        monkeypatch.setattr(TraceCache, "stream_addrs", spy)
        monkeypatch.setattr(characterization, "make_benchmark_trace", boom)
        warm = figure_distribution("vortex", trace_cache=str(tmp_path), **self.KWARGS)
        assert (warm.demand == want.demand).all()
        assert (warm.sizes == want.sizes).all()
        assert streamed == [self.N]  # one chunk: the trace is shorter than 64 K

    def test_stream_survives_corrupt_cache_entry(self, tmp_path, capsys):
        want = self.want("gcc")
        figure_distribution("gcc", trace_cache=str(tmp_path), **self.KWARGS)
        path = TraceCache(tmp_path).path_for(self.key("gcc"))
        path.write_bytes(b"not an archive")
        healed = figure_distribution("gcc", trace_cache=str(tmp_path), **self.KWARGS)
        assert (healed.demand == want.demand).all()
        assert TraceCache(tmp_path).load(self.key("gcc")) is not None  # rewritten
        [notice] = notices(capsys.readouterr().err)
        assert str(path) in notice and notice.endswith("using a regenerated trace (bit-identical)")

    def test_tampered_entry_regenerated_with_one_notice(self, tmp_path, capsys):
        want = self.want("ammp")
        figure_distribution("ammp", trace_cache=str(tmp_path), **self.KWARGS)
        path = TraceCache(tmp_path).path_for(self.key("ammp"))
        # Another program's addresses under ammp's key echo and digest.
        assert not np.array_equal(self.want("swim").sizes, want.sizes)
        for _ in range(2):  # the same entry rejected twice: one notice
            rewrite_addrs(path, self.trace("swim").addrs)
            got = figure_distribution("ammp", trace_cache=str(tmp_path), **self.KWARGS)
            assert (got.demand == want.demand).all()
            assert (got.sizes == want.sizes).all()
        [notice] = notices(capsys.readouterr().err)
        assert notice.startswith(f"repro.trace_cache: unusable cache entry {path}: ")
        assert "content digest mismatch" in notice


def notices(err):
    return [line for line in err.splitlines() if line.startswith("repro.trace_cache:")]


def rewrite_addrs(path, addrs):
    """Replace the entry's address column with *addrs*, keeping every other
    member (the meta record and its digest included)."""
    with zipfile.ZipFile(path) as archive:
        members = {n: archive.read(n) for n in archive.namelist()}
    buf = io.BytesIO()
    np.save(buf, np.asarray(addrs, dtype=np.int64))
    members["addrs_0.npy"] = buf.getvalue()
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
