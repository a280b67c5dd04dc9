"""Determinism contract of the parallel engine.

The same (mix, seed, plan, config) must produce **byte-identical** results
through every execution strategy: the in-process task loop (the inline
backend, run once up front as the reference) and process pools of 1, 2 and
4 workers — with and without the result store in the loop.  Fingerprints
are canonical JSON dumps, so "identical" means identical down to the last
float bit.
"""

import json

import pytest

from tests.helpers import corrupt_and_repair, run_mix

from repro.common.config import tiny_config
from repro.engine import ParallelRunner
from repro.experiments.runner import RunPlan
from repro.workloads.mixes import get_mix

MIX = get_mix("c4_0")


def small_plan() -> RunPlan:
    return RunPlan(
        n_accesses=2_000,
        target_instructions=30_000,
        warmup_instructions=20_000,
        seed=11,
        cc_probs=(0.0, 0.5, 1.0),
    )


def fingerprint(combo) -> str:
    return json.dumps(
        {
            "mix_id": combo.mix_id,
            "mix_class": combo.mix_class,
            "cc_best_prob": combo.cc_best_prob,
            "metrics": combo.metrics,
            "results": {name: res.to_dict() for name, res in combo.results.items()},
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def serial_fingerprint() -> str:
    return fingerprint(run_mix(MIX, tiny_config(seed=7), small_plan()))


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_worker_pool_bit_identical(self, jobs, serial_fingerprint):
        runner = ParallelRunner(tiny_config(seed=7), small_plan(), jobs=jobs)
        [combo] = runner.run([MIX])
        assert fingerprint(combo) == serial_fingerprint
        assert runner.tasks_total == 7  # l2p, l2s, 3x cc, dsr, snug

    def test_in_process_bit_identical(self, serial_fingerprint):
        runner = ParallelRunner(tiny_config(seed=7), small_plan(), jobs=0)
        [combo] = runner.run([MIX])
        assert fingerprint(combo) == serial_fingerprint

    def test_store_round_trip_bit_identical(self, tmp_path, serial_fingerprint):
        """Results that pass through the JSON store stay bit-identical."""
        store = str(tmp_path / "store")
        r1 = ParallelRunner(tiny_config(seed=7), small_plan(), jobs=2, store=store)
        [c1] = r1.run([MIX])
        assert fingerprint(c1) == serial_fingerprint

        resumed = ParallelRunner(
            tiny_config(seed=7), small_plan(), jobs=2, store=store, resume=True
        )
        [c2] = resumed.run([MIX])
        assert fingerprint(c2) == serial_fingerprint
        assert resumed.tasks_resumed == resumed.tasks_total
        assert resumed.tasks_run == 0


class TestResume:
    def test_partial_store_only_runs_remainder(self, tmp_path):
        """Pre-seeding some results leaves only the rest to simulate."""
        store = str(tmp_path / "store")
        config, plan = tiny_config(seed=7), small_plan()

        first = ParallelRunner(config, plan, jobs=0, store=store)
        [combo_full] = first.run([MIX])

        # Drop two task results; resume must recompute exactly those.
        removed = ("c4_0__l2s", "c4_0__cc__p050")
        corrupt_and_repair(store, removed)
        resumed = ParallelRunner(config, plan, jobs=0, store=store, resume=True)
        [combo_resumed] = resumed.run([MIX])
        assert resumed.tasks_run == len(removed)
        assert resumed.tasks_resumed == resumed.tasks_total - len(removed)
        assert fingerprint(combo_resumed) == fingerprint(combo_full)

    def test_resume_does_not_rewrite_completed_results(self, tmp_path):
        store = str(tmp_path / "store")
        config, plan = tiny_config(seed=7), small_plan()
        first = ParallelRunner(config, plan, jobs=0, store=store)
        first.run([MIX])

        def segment_state():
            return {
                str(p.relative_to(tmp_path)): p.read_bytes()
                for p in sorted((tmp_path / "store").glob("shards/*/seg-*.seg"))
            }

        before = segment_state()
        resumed = ParallelRunner(config, plan, jobs=0, store=store, resume=True)
        resumed.run([MIX])
        # A full resume appends nothing: every segment is byte-identical.
        assert segment_state() == before
