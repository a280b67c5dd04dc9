"""Store crash-recovery acceptance: bit flips, kill -9, resume to identity.

Two suites pin the durability story end to end:

* **Scrub/repair acceptance** — flip one bit in a finished sweep's store,
  then walk the operator path: ``verify`` detects exactly that record,
  ``repair`` quarantines exactly that record, and ``--resume``
  re-simulates exactly that task to a merged result bit-identical to the
  uninterrupted serial run.

* **Kill matrix** — a child process runs the same sweep but SIGKILLs
  itself mid-append at a seed-chosen record and byte offset (the torn-tail
  shape a real ``kill -9`` leaves).  The parent resumes the store and must
  get the bit-identical merge, for every seed in ``$REPRO_CRASH_SEEDS``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from tests.helpers import run_mix

from repro.common.config import tiny_config
from repro.engine import ParallelRunner
from repro.engine.store import ResultStore
from repro.experiments.runner import RunPlan
from repro.workloads.mixes import get_mix

MIX_ID = "c5_0"


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
            "mix_class": combo.mix_class,
            "cc_best_prob": combo.cc_best_prob,
            "metrics": combo.metrics,
            "results": {name: res.to_dict() for name, res in combo.results.items()},
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def serial_fingerprint() -> str:
    return fingerprint(run_mix(get_mix(MIX_ID), tiny_config(seed=7), small_plan()))


def _run_sweep(store: str, *, resume: bool = False) -> ParallelRunner:
    runner = ParallelRunner(
        tiny_config(seed=7), small_plan(), jobs=0, store=store, resume=resume
    )
    runner.combos = runner.run([get_mix(MIX_ID)])
    return runner


class TestScrubRepairResume:
    def test_flip_verify_repair_resume_bit_identical(
        self, tmp_path, serial_fingerprint
    ):
        store_dir = tmp_path / "store"
        _run_sweep(str(store_dir))

        # Corrupt exactly one record: one bit inside one task's payload.
        target = "c5_0__dsr"
        flipped = 0
        for segment in sorted(store_dir.glob("shards/*/seg-*.seg")):
            data = bytearray(segment.read_bytes())
            offset = data.find(f'"task_id":"{target}"'.encode())
            if offset == -1:
                continue
            data[offset + len('"task_id":"')] ^= 0x01
            segment.write_bytes(bytes(data))
            flipped += 1
        assert flipped == 1

        with ResultStore(store_dir) as store:
            report = store.verify()
            assert not report.ok
            assert len(report.problems) == 1
            assert report.problems[0].kind == "corrupt"

            repair = store.repair()
            assert len(repair.quarantined) == 1
            assert store.verify().ok
            # Exactly the flipped task left the resume index.
            done = store.completed_ids()
        assert target not in done
        sidecars = list((store_dir / "quarantine").glob("*.json"))
        assert len(sidecars) == 1

        resumed = _run_sweep(str(store_dir), resume=True)
        assert resumed.tasks_run == 1  # only the quarantined task re-simulates
        assert resumed.tasks_resumed == resumed.tasks_total - 1
        [combo] = resumed.combos
        assert fingerprint(combo) == serial_fingerprint


def _crash_seeds() -> list:
    """Seeds for the kill matrix; override with REPRO_CRASH_SEEDS=1,2,3."""
    raw = os.environ.get("REPRO_CRASH_SEEDS", "3,11")
    return [int(s) for s in raw.split(",") if s.strip()]


_CHILD_SCRIPT = """
import os, random, signal, sys

seed = int(sys.argv[1])
store_dir = sys.argv[2]
rng = random.Random(seed)

from repro.engine.store import encode_record
from repro.engine.store.sharded import ResultStore

# SIGKILL this process mid-append at the k-th save, after a seed-chosen
# number of bytes of the record have hit the segment — the exact torn
# shape a crashed coordinator leaves behind.
kill_at = rng.randrange(1, 7)
state = {"saves": 0}
real_append = ResultStore._append

def dying_append(self, task_id, body):
    state["saves"] += 1
    if state["saves"] == kill_at:
        record = encode_record(body)
        cut = rng.randrange(1, len(record))
        shard = self._shard_of(task_id)
        with self._lock:
            _path, handle, _offset = self._writable_segment(shard)
            handle.write(record[:cut])
            handle.flush()
            os.fsync(handle.fileno())
        os.kill(os.getpid(), signal.SIGKILL)
    return real_append(self, task_id, body)

ResultStore._append = dying_append

from repro.common.config import tiny_config
from repro.engine import ParallelRunner
from repro.experiments.runner import RunPlan
from repro.workloads.mixes import get_mix

plan = RunPlan(n_accesses=1_500, target_instructions=25_000,
               warmup_instructions=15_000, seed=5, cc_probs=(0.0, 1.0))
ParallelRunner(tiny_config(seed=7), plan, jobs=0, store=store_dir).run(
    [get_mix("c5_0")]
)
raise SystemExit("sweep finished without crashing — kill point never hit")
"""


class TestKillMatrix:
    @pytest.mark.parametrize("seed", _crash_seeds())
    def test_sigkill_mid_append_resumes_bit_identical(
        self, seed, tmp_path, serial_fingerprint
    ):
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(seed), str(store_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"child was supposed to die by SIGKILL, got rc={proc.returncode}: "
            f"{proc.stderr}"
        )

        # The store must come back with only the unacknowledged record
        # missing: open truncates the torn tail, verify is then clean.
        with ResultStore(store_dir) as store:
            done = store.completed_ids()
            assert store.verify().ok

        resumed = _run_sweep(str(store_dir), resume=True)
        assert resumed.tasks_resumed == len(done)
        assert resumed.tasks_run == resumed.tasks_total - len(done)
        [combo] = resumed.combos
        assert fingerprint(combo) == serial_fingerprint
        with ResultStore(store_dir) as store:
            assert store.verify().ok
