"""Trace memoization and task chunking must not change engine results.

The memo is a pure optimization: trace generation is deterministic in the
memo key, so warm-cache runs must merge to byte-identical
:class:`ComboResult` s (the same fingerprint discipline as the determinism
suite).  The key embeds the program tuple, so custom mixes that share a
``mix_id`` can never alias each other's traces.
"""

import json

import numpy as np
import pytest

from tests.helpers import run_mix

from repro.common.config import tiny_config
from repro.engine import ParallelRunner
from repro.engine.execution import (
    _TRACE_MEMO_MAX,
    _mix_traces,
    _trace_memo,
    execute_task_chunk,
)
from repro.engine.tasks import SimTask, expand_mix_tasks
from repro.experiments.runner import RunPlan
from repro.workloads.mixes import WorkloadMix, build_mix_traces, get_mix


def small_plan() -> RunPlan:
    return RunPlan(
        n_accesses=1_500,
        target_instructions=25_000,
        warmup_instructions=15_000,
        seed=5,
        cc_probs=(0.0, 1.0),
    )


def fingerprint(combo) -> str:
    return json.dumps(
        {
            "mix_id": combo.mix_id,
            "cc_best_prob": combo.cc_best_prob,
            "metrics": combo.metrics,
            "results": {name: res.to_dict() for name, res in combo.results.items()},
        },
        sort_keys=True,
    )


@pytest.fixture(autouse=True)
def clean_memo():
    _trace_memo.clear()
    yield
    _trace_memo.clear()


class TestMemoCorrectness:
    def test_memo_returns_identical_traces(self):
        mix = get_mix("c3_0")
        cold = _mix_traces(mix, 16, 500, seed=3)
        warm = _mix_traces(mix, 16, 500, seed=3)
        assert warm is cold  # second call is a cache hit
        rebuilt = build_mix_traces(mix, 16, 500, 3)
        for a, b in zip(cold, rebuilt):
            assert np.array_equal(a.addrs, b.addrs)
            assert np.array_equal(a.gaps, b.gaps)
            assert np.array_equal(a.writes, b.writes)

    def test_distinct_custom_mixes_never_alias(self):
        """Same mix_id, different programs -> different memo entries."""
        mix_a = WorkloadMix("custom", "custom", ("gzip", "swim", "mesa", "applu"))
        mix_b = WorkloadMix("custom", "custom", ("ammp", "parser", "vortex", "mcf"))
        traces_a = _mix_traces(mix_a, 16, 400, seed=1)
        traces_b = _mix_traces(mix_b, 16, 400, seed=1)
        assert len(_trace_memo) == 2
        assert not np.array_equal(traces_a[0].addrs, traces_b[0].addrs)

    def test_memo_is_bounded(self):
        for i, mix in enumerate(["c1_0", "c1_1", "c1_2", "c2_0", "c2_1", "c2_2"]):
            _mix_traces(get_mix(mix), 16, 200, seed=i)
        assert len(_trace_memo) <= _TRACE_MEMO_MAX


class TestMemoizedEngineBitIdentical:
    """Warm-memo and chunked-pool runs reproduce the inline ComboResults."""

    def test_warm_memo_matches_serial(self):
        config, plan = tiny_config(seed=7), small_plan()
        mix = get_mix("c4_0")
        serial = fingerprint(run_mix(mix, config, plan))
        runner = ParallelRunner(config, plan, jobs=0)
        [cold] = runner.run([mix])
        assert _trace_memo, "in-process run should have populated the memo"
        [warm] = ParallelRunner(config, plan, jobs=0).run([mix])
        assert fingerprint(cold) == serial
        assert fingerprint(warm) == serial

    def test_multi_mix_chunked_pool_matches_serial(self):
        """Two mixes, two workers: per-mix chunks merge identically."""
        config, plan = tiny_config(seed=7), small_plan()
        mixes = [get_mix("c5_0"), get_mix("c5_1")]
        serial = [fingerprint(run_mix(m, config, plan)) for m in mixes]
        runner = ParallelRunner(config, plan, jobs=2)
        combos = runner.run(mixes)
        assert [fingerprint(c) for c in combos] == serial

    def test_chunk_failure_preserves_completed_results(self):
        """A mid-chunk failure returns the siblings finished before it."""
        config, plan = tiny_config(seed=7), small_plan()
        mix = get_mix("c1_0")

        def task(scheme):
            return SimTask(mix.mix_id, mix.mix_class, mix.programs, scheme)

        results, error, stats = execute_task_chunk(
            config, plan, [task("l2p"), task("not_a_scheme"), task("l2s")]
        )
        assert [r.scheme for r in results] == ["l2p"]
        assert error is not None
        assert stats["memo_hits"] + stats["cache_hits"] + stats["generated"] >= 1

    def test_single_mix_pool_fans_out_in_subchunks(self):
        """Fewer mixes than workers: each mix splits into contiguous
        sub-chunks of <= ceil(len/jobs) tasks — enough chunks to fill the
        workers *without* giving up the within-chunk trace-memo locality
        single-task chunks used to discard."""
        import math

        config, plan = tiny_config(seed=7), small_plan()
        mix = get_mix("c4_1")
        runner = ParallelRunner(config, plan, jobs=3)
        tasks = expand_mix_tasks(mix, runner.schemes, plan.cc_probs)
        chunks = runner._chunk(tasks)
        cap = math.ceil(len(tasks) / runner.jobs)
        assert len(chunks) >= runner.jobs
        assert all(1 <= len(c) <= cap for c in chunks)
        assert any(len(c) > 1 for c in chunks)  # memo locality survives
        # Sub-chunks are contiguous slices in task order.
        assert [t.task_id for c in chunks for t in c] == [t.task_id for t in tasks]
        serial = fingerprint(run_mix(mix, config, plan))
        [combo] = runner.run([mix])
        assert fingerprint(combo) == serial

    def test_multi_mix_chunks_stay_whole_when_enough(self):
        """With at least as many mixes as workers, chunks stay one-per-mix."""
        config, plan = tiny_config(seed=7), small_plan()
        mixes = [get_mix("c5_0"), get_mix("c5_1")]
        runner = ParallelRunner(config, plan, jobs=2)
        tasks = [
            t for m in mixes for t in expand_mix_tasks(m, runner.schemes, plan.cc_probs)
        ]
        chunks = runner._chunk(tasks)
        assert len(chunks) == 2
        assert {c[0].mix_id for c in chunks} == {"c5_0", "c5_1"}
        assert all(len({t.mix_id for t in c}) == 1 for c in chunks)
