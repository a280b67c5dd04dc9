"""The shared on-disk trace cache: correctness, atomicity, self-healing."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.workloads.mixes import build_mix_traces, get_mix
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace_cache import (
    TraceCache,
    benchmark_key,
    cached_mix_traces,
    mix_key,
    resolve_cache_root,
)

MIX = get_mix("c3_0")


def assert_traces_equal(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.name == tb.name
        assert np.array_equal(ta.gaps, tb.gaps)
        assert np.array_equal(ta.addrs, tb.addrs)
        assert np.array_equal(ta.writes, tb.writes)


class TestRoundTrip:
    def test_mix_store_then_load_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        generated, src1 = cached_mix_traces(cache, MIX, 16, 400, seed=3)
        assert src1 == "generated"
        loaded, src2 = cached_mix_traces(cache, MIX, 16, 400, seed=3)
        assert src2 == "cache"
        assert_traces_equal(loaded, generated)
        assert_traces_equal(loaded, build_mix_traces(MIX, 16, 400, 3))
        assert cache.hits == 1 and cache.stores == 1 and cache.rejected == 0

    def test_benchmark_store_then_load_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = benchmark_key("ammp", 16, 600, 2)
        assert cache.load(key) is None
        cache.store(key, [make_benchmark_trace("ammp", 16, 600, 2)])
        loaded = cache.load(key)
        assert_traces_equal(loaded, [make_benchmark_trace("ammp", 16, 600, 2)])
        assert (cache.misses, cache.hits, cache.rejected) == (1, 1, 0)

    def test_no_cache_is_plain_generation(self):
        traces, src = cached_mix_traces(None, MIX, 16, 300, seed=1)
        assert src == "generated"
        assert_traces_equal(traces, build_mix_traces(MIX, 16, 300, 1))


class TestKeying:
    def test_distinct_keys_distinct_files(self, tmp_path):
        cache = TraceCache(tmp_path)
        keys = {
            cache.path_for(mix_key(MIX, 16, 400, 3)),
            cache.path_for(mix_key(MIX, 16, 400, 4)),      # seed
            cache.path_for(mix_key(MIX, 32, 400, 3)),      # num_sets
            cache.path_for(mix_key(MIX, 16, 500, 3)),      # n_accesses
            cache.path_for(benchmark_key("ammp", 16, 400, 3)),
        }
        assert len(keys) == 5

    def test_custom_mixes_sharing_id_never_alias(self, tmp_path):
        """Two custom mixes both named "custom" must hit different entries —
        the program tuple is part of the key."""
        from repro.workloads.mixes import WorkloadMix

        mix_a = WorkloadMix("custom", "custom", ("gzip", "swim", "mesa", "applu"))
        mix_b = WorkloadMix("custom", "custom", ("ammp", "parser", "vortex", "mcf"))
        cache = TraceCache(tmp_path)
        traces_a, _ = cached_mix_traces(cache, mix_a, 16, 300, seed=1)
        traces_b, src_b = cached_mix_traces(cache, mix_b, 16, 300, seed=1)
        assert src_b == "generated"  # no false hit
        assert not np.array_equal(traces_a[0].addrs, traces_b[0].addrs)

    def test_serial_run_combo_honors_env_cache(self, tmp_path, monkeypatch):
        """$REPRO_TRACE_CACHE reaches a run without engine options too:
        ``run_scenario(scenario)`` populates and then reuses the shared
        cache."""
        import repro.workloads.trace_cache as tc_module
        from repro.engine.execution import _trace_memo
        from repro.experiments.runner import RunPlan
        from repro.scenario import Scenario, SystemSpec, WorkloadSpec, run_scenario

        root = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(root))
        scenario = Scenario(
            name="env-cache",
            system=SystemSpec(scale="tiny", seed=7),
            workload=WorkloadSpec(mixes=(MIX.mix_id,)),
            schemes=("l2p",),
            plan=RunPlan(n_accesses=800, target_instructions=8_000,
                         warmup_instructions=0, seed=3, cc_probs=(0.0,)),
        )
        _trace_memo.clear()
        [first] = run_scenario(scenario)
        assert len(list(root.iterdir())) == 1  # populated without engine flags

        # Second run must be served from the cache: poison the generator so
        # any regeneration attempt fails loudly.
        def boom(*args, **kwargs):
            raise AssertionError("regenerated instead of using the shared cache")

        monkeypatch.setattr(tc_module, "build_mix_traces", boom)
        _trace_memo.clear()
        [second] = run_scenario(scenario)
        assert second.results["l2p"].to_dict() == first.results["l2p"].to_dict()

    def test_env_default_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert resolve_cache_root(None) is None
        assert resolve_cache_root(tmp_path) == str(tmp_path)
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "env"))
        assert resolve_cache_root(None) == str(tmp_path / "env")
        assert resolve_cache_root(str(tmp_path / "cli")) == str(tmp_path / "cli")


class TestCorruption:
    def test_truncated_entry_regenerates(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = mix_key(MIX, 16, 400, 3)
        cache.store(key, build_mix_traces(MIX, 16, 400, 3))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.load(key) is None
        assert cache.rejected == 1
        # The provisioning wrapper heals the entry in place.
        traces, src = cached_mix_traces(cache, MIX, 16, 400, seed=3)
        assert src == "generated"
        assert_traces_equal(traces, build_mix_traces(MIX, 16, 400, 3))
        loaded, src2 = cached_mix_traces(cache, MIX, 16, 400, seed=3)
        assert src2 == "cache"

    def test_digest_mismatch_regenerates(self, tmp_path):
        """An entry whose arrays were tampered with (valid npz, stale digest)
        is rejected and rebuilt rather than served."""
        import io
        import json as jsonlib

        cache = TraceCache(tmp_path)
        key = mix_key(MIX, 16, 400, 3)
        traces = build_mix_traces(MIX, 16, 400, 3)
        cache.store(key, traces)
        path = cache.path_for(key)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
            meta = jsonlib.loads(str(payload["meta"]))
        arrays["addrs_0"] = arrays["addrs_0"].copy()
        arrays["addrs_0"][0] += 1  # silent bit-flip, digest left stale
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        path.write_bytes(buf.getvalue())
        assert meta["digest"]  # the stored digest no longer matches
        assert cache.load(key) is None
        assert cache.rejected == 1
        healed, src = cached_mix_traces(cache, MIX, 16, 400, seed=3)
        assert src == "generated"
        assert_traces_equal(healed, traces)

    def test_wrong_key_echo_rejected(self, tmp_path):
        """An entry moved/renamed onto another key's path is not served."""
        cache = TraceCache(tmp_path)
        key_a = mix_key(MIX, 16, 400, 3)
        key_b = mix_key(MIX, 16, 400, 4)
        cache.store(key_a, build_mix_traces(MIX, 16, 400, 3))
        cache.path_for(key_a).rename(cache.path_for(key_b))
        assert cache.load(key_b) is None
        assert cache.rejected == 1


class TestConcurrency:
    def test_concurrent_writers_one_valid_entry(self, tmp_path):
        """Eight threads racing on one cold key: every caller gets correct
        traces and the surviving file is a valid, digest-clean entry."""
        root = tmp_path / "cache"

        def worker(_):
            cache = TraceCache(root)
            return cached_mix_traces(cache, MIX, 16, 400, seed=3)[0]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8)))
        reference = build_mix_traces(MIX, 16, 400, 3)
        for traces in results:
            assert_traces_equal(traces, reference)
        files = list(root.iterdir())
        assert len(files) == 1  # no leftover temp files
        final = TraceCache(root)
        assert final.load(mix_key(MIX, 16, 400, 3)) is not None
        assert final.rejected == 0

    def test_concurrent_distinct_keys(self, tmp_path):
        root = tmp_path / "cache"
        seeds = list(range(6))

        def worker(seed):
            cache = TraceCache(root)
            return cached_mix_traces(cache, MIX, 16, 300, seed=seed)[0]

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(worker, seeds))
        for seed, traces in zip(seeds, results):
            assert_traces_equal(traces, build_mix_traces(MIX, 16, 300, seed))
        assert len(list(root.iterdir())) == len(seeds)
