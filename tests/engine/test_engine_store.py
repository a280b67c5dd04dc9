"""Unit tests for the engine's task model and sharded segment result store.

The record checksum has two steps, C and (without the kernel library)
Python; the checksum, framing and scan tests run on both
(:func:`on_both_checksum_steps`), and the Python step announces itself
once per process.
"""

import functools
import itertools
import json

import pytest

from repro.common.config import tiny_config
from repro.common.errors import EngineError
from repro.core import _ckernel
from repro.engine import ParallelRunner, ResultStore, SimTask, expand_mix_tasks
from repro.engine.store import (
    RECORD_OVERHEAD,
    STORE_VERSION,
    canonical_body,
    crc32c,
    encode_record,
)
from repro.experiments.runner import RunPlan
from repro.workloads.mixes import get_mix
from tests.helpers import on_both_steps, stderr_notices


def _segments(store_root):
    """Every segment file under a store root, sorted for determinism."""
    return sorted(store_root.glob("shards/*/seg-*.seg"))


def on_both_checksum_steps(test):
    """:func:`tests.helpers.on_both_steps` for a store test taking
    ``tmp_path``: the records are checksummed in C, then in Python, and
    each pass gets its own fresh directory under ``tmp_path``."""

    @functools.wraps(test)
    def run(self, tmp_path):
        dirs = (tmp_path / f"pass{i}" for i in itertools.count())
        on_both_steps(lambda: test(self, next(dirs)))()

    return run


def _append_record(store_root, task_id, record):
    """Frame *record* and append it to the segment holding *task_id*'s
    records, as a writer that checksums it correctly would."""
    needle = f'"task_id":"{task_id}"'.encode()
    [segment] = [seg for seg in _segments(store_root)
                 if needle in seg.read_bytes()]
    with open(segment, "ab") as handle:
        handle.write(encode_record(canonical_body(record)))


class TestSimTask:
    def test_task_id_plain_scheme(self):
        task = SimTask("c1_0", "C1", ("ammp",) * 4, "l2p")
        assert task.task_id == "c1_0__l2p"

    def test_task_id_cc_probability_point(self):
        task = SimTask("c1_0", "C1", ("ammp",) * 4, "cc", cc_prob=0.25)
        assert task.task_id == "c1_0__cc__p025"

    def test_mix_reconstruction(self):
        mix = get_mix("c3_1")
        task = SimTask(mix.mix_id, mix.mix_class, mix.programs, "dsr")
        assert task.mix == mix


class TestExpandMixTasks:
    def test_l2p_forced_first(self):
        tasks = expand_mix_tasks(get_mix("c1_0"), ["snug"], (0.0,))
        assert [t.scheme for t in tasks] == ["l2p", "snug"]

    def test_cc_best_expands_per_probability(self):
        tasks = expand_mix_tasks(get_mix("c1_0"), ["l2p", "cc_best"], (0.0, 0.5, 1.0))
        cc = [t for t in tasks if t.scheme == "cc"]
        assert [t.cc_prob for t in cc] == [0.0, 0.5, 1.0]
        assert len(tasks) == 4

    def test_full_scheme_list(self):
        tasks = expand_mix_tasks(
            get_mix("c1_0"), ["l2p", "l2s", "cc_best", "dsr", "snug"], (0.0, 0.5, 1.0)
        )
        assert len(tasks) == 7
        assert len({t.task_id for t in tasks}) == 7  # ids unique


class TestResultStore:
    @on_both_steps
    def test_crc32c_known_vector(self):
        """Pin the checksum to real CRC32C (Castagnoli), not zlib's CRC32 —
        a wrong-but-self-consistent polynomial would verify its own
        corruption.  (RFC 3720's check value.)"""
        assert crc32c(b"123456789") == 0xE3069283

    @on_both_steps
    def test_crc32c_empty_string_leaves_the_register(self):
        assert crc32c(b"") == 0
        assert crc32c(b"", 0xE3069283) == 0xE3069283

    @on_both_steps
    def test_crc32c_refuses_bad_arguments_before_either_step(self):
        for data in (bytearray(b"abc"), memoryview(b"abc"), "abc", 3):
            with pytest.raises(TypeError, match="crc32c takes bytes"):
                crc32c(data)
        for crc in (-1, 1 << 32, 1.0):
            with pytest.raises(ValueError, match="not a 32-bit value"):
                crc32c(b"abc", crc)

    @on_both_checksum_steps
    def test_save_load_round_trip(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.initialize({"k": 1})
            payload = {"result": {"ipc": [0.1, 0.2]}, "task": {"scheme": "l2p"}}
            store.save("combo__l2p", payload)
            assert store.load("combo__l2p") == payload
            assert store.completed_ids() == {"combo__l2p"}
        # Durable: a fresh instance replays the segments to the same state.
        with ResultStore(tmp_path / "s") as reopened:
            assert reopened.load("combo__l2p") == payload

    def test_reopen_same_manifest_ok(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize({"k": 1})
        ResultStore(tmp_path / "s").initialize({"k": 1})  # no error

    def test_reopen_different_manifest_rejected(self, tmp_path):
        ResultStore(tmp_path / "s").initialize({"k": 1})
        with pytest.raises(EngineError):
            ResultStore(tmp_path / "s").initialize({"k": 2})

    def test_missing_result_raises(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize({})
        with pytest.raises(EngineError):
            store.load("nope")

    @on_both_checksum_steps
    def test_resave_supersedes_last_wins(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            store.save("t1", {"v": 1})
            store.save("t1", {"v": 2})
            assert store.load("t1") == {"v": 2}
        with ResultStore(tmp_path / "s") as reopened:
            assert reopened.load("t1") == {"v": 2}
            # close() leaves the superseded record for `compact` to reclaim.
            assert reopened.verify().superseded == 1

    def test_records_spread_across_shards(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            for index in range(64):
                store.save(f"c{index}__l2p", {"v": index})
        shard_dirs = {seg.parent.name for seg in _segments(tmp_path / "s")}
        assert len(shard_dirs) > 1  # sha256 partitioning actually spreads

    @on_both_checksum_steps
    def test_bit_flip_detected_and_excluded(self, tmp_path):
        """A single flipped payload bit fails the CRC: verify() names the
        record, completed_ids() drops the task (so --resume recomputes it),
        and load() points at the repair + --resume remedy."""
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            store.save("c4_0__l2p", {"task": {"scheme": "l2p"}, "result": {}})
        [segment] = _segments(tmp_path / "s")
        data = bytearray(segment.read_bytes())
        # Flip one bit inside a payload string: the record no longer
        # checksums, but the body still parses so the report can name the
        # task.  (RECORD_OVERHEAD bytes of framing precede the body.)
        offset = data.find(b'"scheme":"l2p"')
        assert offset >= RECORD_OVERHEAD - 1
        data[offset + len(b'"scheme":"l2') ] ^= 0x01
        segment.write_bytes(bytes(data))

        with ResultStore(tmp_path / "s") as store:
            report = store.verify()
            assert not report.ok
            assert len(report.problems) == 1
            assert report.problems[0].kind == "corrupt"
            assert report.problems[0].task_id == "c4_0__l2p"
            assert "repro store repair" in report.problems[0].message()
            # The corrupt record never reaches the resume index, so the
            # sweep re-simulates the task instead of trusting bad bytes.
            assert store.completed_ids() == set()
            with pytest.raises(EngineError, match="no stored result"):
                store.load("c4_0__l2p")

    @on_both_checksum_steps
    def test_corruption_after_open_caught_on_load(self, tmp_path):
        """The checksum is re-verified on every read: damage landing while
        the store is open (so the index still lists the record) surfaces as
        an actionable repair + --resume message, never as bad payload."""
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            store.save("c4_0__l2p", {"task": {"scheme": "l2p"}, "result": {}})
            [segment] = _segments(tmp_path / "s")
            data = bytearray(segment.read_bytes())
            data[data.find(b'"scheme"') + 2] ^= 0x01
            segment.write_bytes(bytes(data))
            with pytest.raises(EngineError) as excinfo:
                store.load("c4_0__l2p")
        message = str(excinfo.value)
        assert "repro store repair" in message and "--resume" in message

    @on_both_checksum_steps
    def test_repair_quarantines_exactly_the_corrupt_record(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            store.save("good", {"v": 1})
            store.save("bad", {"v": 2})
        flipped = None
        for segment in _segments(tmp_path / "s"):
            data = bytearray(segment.read_bytes())
            offset = data.find(b'"task_id":"bad"')
            if offset != -1:
                data[offset + len(b'"task_id":"')] ^= 0x01
                segment.write_bytes(bytes(data))
                flipped = segment
        assert flipped is not None

        with ResultStore(tmp_path / "s") as store:
            report = store.repair()
            assert report.changed
            assert len(report.quarantined) == 1
            assert store.verify().ok  # damage is out of the replay path
            assert store.load("good") == {"v": 1}
        sidecars = sorted((tmp_path / "s" / "quarantine").glob("*.json"))
        assert len(sidecars) == 1
        sidecar = json.loads(sidecars[0].read_text())
        assert sidecar["kind"] == "corrupt"
        assert (tmp_path / "s" / "quarantine" / f"{sidecars[0].stem}.bin").exists()

    @on_both_checksum_steps
    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        """kill -9 mid-append leaves a half record with no commit marker;
        reopening loses exactly that record and keeps everything before it."""
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            store.save("t1", {"v": 1})
        [segment] = _segments(tmp_path / "s")
        intact = segment.stat().st_size
        from repro.engine.store import MAGIC

        with open(segment, "ab") as handle:
            handle.write(MAGIC + b"\x00\x00\x01\x00")  # header torn mid-write
        with ResultStore(tmp_path / "s") as store:
            assert store.completed_ids() == {"t1"}
            assert store.verify().ok  # open already truncated the tail
        assert segment.stat().st_size == intact

    @on_both_checksum_steps
    def test_compact_reclaims_superseded_records(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            store.save("t1", {"v": 1})
            store.save("t1", {"v": 2})
            store.save("t2", {"v": 9})
            report = store.compact()
            assert report.records_dropped == 1  # the stale t1
            assert report.bytes_reclaimed > 0
            assert store.load("t1") == {"v": 2}
            assert store.completed_ids() == {"t1", "t2"}
            verified = store.verify()
            assert (verified.live, verified.superseded) == (2, 0)
        with ResultStore(tmp_path / "s") as reopened:
            assert reopened.load("t1") == {"v": 2}
            assert reopened.load("t2") == {"v": 9}

    @on_both_checksum_steps
    def test_payload_bytes_identical_across_stores(self, tmp_path):
        """Two stores of the same sweep hold byte-identical record bodies —
        the store face of the bit-identical-merge contract."""
        payload = {"task": {"scheme": "l2p"}, "result": {"ipc": [0.5]}}
        for name in ("a", "b"):
            with ResultStore(tmp_path / name) as store:
                store.initialize({"k": 1})
                store.save("t1", payload)
        with ResultStore(tmp_path / "a") as sa, ResultStore(tmp_path / "b") as sb:
            assert sa.payload_bytes("t1") == sb.payload_bytes("t1")

    @on_both_checksum_steps
    def test_record_without_payload_is_not_a_result(self, tmp_path):
        """A clean record naming a task but carrying no payload (the
        tombstones older stores wrote) is no result: the task is not
        completed, loading it says so, and verify reports the record."""
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            store.save("t2", {"v": 2})
        _append_record(tmp_path / "s", "t2",
                       {"task_id": "t1", "scenario": None})
        with ResultStore(tmp_path / "s") as store:
            assert store.completed_ids() == {"t2"}
            with pytest.raises(EngineError, match="no stored result for task 't1'"):
                store.load("t1")
            report = store.verify()
            assert not report.ok
            [problem] = report.problems
            assert "checksums clean but is not a result record" in problem.reason
            assert problem.task_id == "t1"
            assert (report.records, report.live) == (2, 1)

    @on_both_checksum_steps
    def test_record_without_payload_leaves_earlier_result(self, tmp_path):
        """Such a record after a task's result leaves that result indexed;
        repair quarantines the record, after which verify passes and
        compact runs."""
        with ResultStore(tmp_path / "s") as store:
            store.initialize({})
            store.save("t1", {"v": 1})
        _append_record(tmp_path / "s", "t1",
                       {"task_id": "t1", "scenario": None})
        with ResultStore(tmp_path / "s") as store:
            assert store.completed_ids() == {"t1"}
            assert store.load("t1") == {"v": 1}
            assert not store.verify().ok
            with pytest.raises(EngineError, match="not a result record"):
                store.compact()
            [quarantined] = store.repair().quarantined
            assert quarantined.task_id == "t1"
            assert store.verify().ok
            store.compact()
            assert store.load("t1") == {"v": 1}

    @pytest.mark.parametrize("version", [None, 1, STORE_VERSION + 1])
    def test_other_store_version_refused(self, tmp_path, version):
        """Only a manifest stamped with this build's store_version opens;
        any other (or none, as in the old one-file-per-task layout) is
        refused by name before a byte of the store is read or written."""
        root = tmp_path / "s"
        root.mkdir()
        manifest = {"k": 1}
        if version is not None:
            manifest["store_version"] = version
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(EngineError, match=f"store_version {version}, "):
            ResultStore(root).initialize({"k": 1})
        with pytest.raises(EngineError, match=f"store_version {version}, "):
            ResultStore(root).verify()
        assert sorted(p.name for p in root.iterdir()) == ["manifest.json"]

    def test_unreadable_manifest_raises_engine_error(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize({"k": 1})
        store.manifest_path.write_text("{torn")
        with pytest.raises(EngineError, match="manifest"):
            ResultStore(tmp_path / "s").initialize({"k": 1})

    def test_manifest_is_sorted_json(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize({"b": 2, "a": 1})
        text = (store.root / "manifest.json").read_text()
        assert json.loads(text)["a"] == 1
        assert text.index('"a"') < text.index('"b"')


class TestChecksumNotice:
    """Without the kernel library the store's checksum says, once per
    process, that it runs its Python step; with the library it says
    nothing."""

    #: Two stores, several saves and a scrub: every checksum takes the
    #: same step.
    SCRIPT = (
        "import tempfile\n"
        "from repro.engine import ResultStore\n"
        "with tempfile.TemporaryDirectory() as root:\n"
        "    for name in ('a', 'b'):\n"
        "        with ResultStore(f'{root}/{name}') as store:\n"
        "            store.initialize({})\n"
        "            for i in range(3):\n"
        "                store.save(f't{i}', {'v': i})\n"
        "            assert store.verify().ok\n"
        "            assert store.load('t2') == {'v': 2}\n"
    )

    def _notices(self, **env_knobs):
        return stderr_notices(self.SCRIPT, "repro.store:", **env_knobs)

    def test_python_step_announced_once(self):
        assert self._notices(REPRO_NO_CKERNEL="1") == [
            "repro.store: C kernel unavailable (disabled by "
            "REPRO_NO_CKERNEL); using the Python step (bit-identical)"
        ]

    @pytest.mark.skipif(not _ckernel.lib_available(),
                        reason="needs the C kernel library")
    def test_c_step_is_silent(self):
        assert self._notices() == []


class TestScenarioStamp:
    """The runner stamps the scenario identity into the store manifest."""

    def scenario(self, seed=7):
        from repro.scenario import Scenario, SystemSpec, WorkloadSpec

        return Scenario(
            name=f"stamp-{seed}",
            system=SystemSpec(scale="tiny", seed=seed),
            workload=WorkloadSpec(mixes=("c1_0",)),
            schemes=("l2p",),
            plan=RunPlan(n_accesses=1_000, target_instructions=10_000,
                         warmup_instructions=0, seed=seed, cc_probs=(0.0,)),
        )

    def runner(self, scenario, store, resume=False):
        return ParallelRunner(
            scenario.build_config(), scenario.plan, schemes=scenario.schemes,
            jobs=0, store=store, resume=resume, scenario=scenario,
        )

    def test_manifest_carries_name_and_hash(self, tmp_path):
        scenario = self.scenario()
        store = str(tmp_path / "s")
        self.runner(scenario, store).run(scenario.build_mixes())
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["scenario"] == {
            "name": scenario.name,
            "hash": scenario.content_hash(),
        }

    def test_same_scenario_resumes(self, tmp_path):
        scenario = self.scenario()
        store = str(tmp_path / "s")
        self.runner(scenario, store).run(scenario.build_mixes())
        resumed = self.runner(scenario, store, resume=True)
        resumed.run(scenario.build_mixes())
        assert resumed.tasks_resumed == resumed.tasks_total

    def test_different_scenario_resume_refused_actionably(self, tmp_path):
        first, second = self.scenario(seed=7), self.scenario(seed=8)
        store = str(tmp_path / "s")
        self.runner(first, store).run(first.build_mixes())
        with pytest.raises(EngineError) as excinfo:
            self.runner(second, store, resume=True).run(second.build_mixes())
        message = str(excinfo.value)
        assert "stamp-7" in message and "stamp-8" in message
        assert first.content_hash()[:12] in message
        assert "fresh --store" in message

    def test_cosmetic_rename_still_resumes(self, tmp_path):
        """Only the content hash is identity: renaming a scenario (or moving
        between the flag and file spellings) must not orphan a store."""
        import dataclasses

        scenario = self.scenario()
        renamed = dataclasses.replace(scenario, name="other-name")
        assert renamed.content_hash() == scenario.content_hash()
        store = str(tmp_path / "s")
        self.runner(scenario, store).run(scenario.build_mixes())
        resumed = self.runner(renamed, store, resume=True)
        resumed.run(renamed.build_mixes())
        assert resumed.tasks_resumed == resumed.tasks_total

    def test_unstamped_store_refused_by_stamped_run(self, tmp_path):
        """A pre-scenario (API-driven) store mismatches a stamped run — the
        silent-merge hole the stamp closes."""
        scenario = self.scenario()
        store = str(tmp_path / "s")
        ParallelRunner(
            scenario.build_config(), scenario.plan, schemes=scenario.schemes,
            jobs=0, store=store,
        ).run(scenario.build_mixes())
        with pytest.raises(EngineError, match="unstamped"):
            self.runner(scenario, store, resume=True).run(scenario.build_mixes())


class TestRunnerValidation:
    def test_resume_requires_store(self):
        with pytest.raises(EngineError):
            ParallelRunner(tiny_config(), RunPlan(), resume=True)

    def test_negative_jobs_rejected(self):
        with pytest.raises(EngineError):
            ParallelRunner(tiny_config(), RunPlan(), jobs=-1)

    def test_duplicate_mix_ids_in_one_run_rejected(self):
        from repro.workloads.mixes import WorkloadMix

        plan = RunPlan(n_accesses=1_000, target_instructions=10_000,
                       warmup_instructions=0, seed=1, cc_probs=(0.0,))
        mix_a = WorkloadMix("custom", "custom", ("ammp", "applu", "apsi", "art"))
        mix_b = WorkloadMix("custom", "custom", ("vpr", "twolf", "swim", "mgrid"))
        with pytest.raises(EngineError):
            ParallelRunner(tiny_config(), plan, schemes=["l2p"], jobs=0).run([mix_a, mix_b])

    def test_resume_rejects_different_custom_mix(self, tmp_path):
        """Two custom mixes share mix_id "custom": resume must not serve one
        mix's stored results for the other's programs."""
        from repro.workloads.mixes import WorkloadMix

        store = str(tmp_path / "s")
        plan = RunPlan(n_accesses=1_000, target_instructions=10_000,
                       warmup_instructions=0, seed=1, cc_probs=(0.0,))
        mix_a = WorkloadMix("custom", "custom", ("ammp", "applu", "apsi", "art"))
        mix_b = WorkloadMix("custom", "custom", ("vpr", "twolf", "swim", "mgrid"))
        ParallelRunner(tiny_config(), plan, schemes=["l2p"], jobs=0, store=store).run([mix_a])
        with pytest.raises(EngineError):
            ParallelRunner(
                tiny_config(), plan, schemes=["l2p"], jobs=0, store=store, resume=True
            ).run([mix_b])

    def test_mismatched_plan_rejected_on_reuse(self, tmp_path):
        """A store created under one plan refuses tasks from another."""
        store = str(tmp_path / "s")
        mix = get_mix("c1_0")
        plan_a = RunPlan(n_accesses=1_000, target_instructions=10_000,
                         warmup_instructions=0, seed=1, cc_probs=(0.0,))
        plan_b = RunPlan(n_accesses=1_000, target_instructions=10_000,
                         warmup_instructions=0, seed=2, cc_probs=(0.0,))
        ParallelRunner(tiny_config(), plan_a, schemes=["l2p"], jobs=0, store=store).run([mix])
        with pytest.raises(EngineError):
            ParallelRunner(tiny_config(), plan_b, schemes=["l2p"], jobs=0, store=store).run([mix])


class TestProgressTap:
    """The per-task progress callback the job service journals through."""

    PLAN = RunPlan(n_accesses=1_000, target_instructions=10_000,
                   warmup_instructions=0, seed=3, cc_probs=(0.0,))

    def runner(self, store, ticks, *, schemes=("l2p", "l2s"), resume=False,
               tap=None):
        def default_tap(task_id, done, total):
            ticks.append((task_id, done, total))

        return ParallelRunner(
            tiny_config(), self.PLAN, schemes=list(schemes), jobs=0,
            store=store, resume=resume, progress=tap or default_tap,
        )

    def test_one_tick_per_task_monotonic(self, tmp_path):
        ticks = []
        runner = self.runner(str(tmp_path / "s"), ticks)
        runner.run([get_mix("c1_0")])
        assert len(ticks) == runner.tasks_total == 2  # one mix x two schemes
        assert [done for _tid, done, _tot in ticks] == list(
            range(1, runner.tasks_total + 1)
        )
        assert {tot for _tid, _done, tot in ticks} == {runner.tasks_total}
        assert sorted(tid for tid, _done, _tot in ticks) == [
            "c1_0__l2p", "c1_0__l2s",
        ]

    def test_resumed_tasks_tick_before_fresh_ones(self, tmp_path):
        store = str(tmp_path / "s")

        class Abort(Exception):
            pass

        first_tick = []

        def die_after_first(task_id, done, total):
            first_tick.append(task_id)
            raise Abort(task_id)

        with pytest.raises(Abort):
            self.runner(store, [], tap=die_after_first).run([get_mix("c1_0")])
        ticks = []
        resumed = self.runner(store, ticks, resume=True)
        resumed.run([get_mix("c1_0")])
        assert len(ticks) == resumed.tasks_total
        assert resumed.tasks_resumed == 1
        # The journaled task replays as tick #1, before any fresh compute.
        assert ticks[0][0] == first_tick[0]

    def test_raising_tap_aborts_after_current_result_is_stored(self, tmp_path):
        store = str(tmp_path / "s")

        class Abort(Exception):
            pass

        def lethal(task_id, done, total):
            raise Abort(task_id)

        with pytest.raises(Abort):
            self.runner(store, [], tap=lethal).run([get_mix("c1_0")])
        # The result that triggered the tick is already durable: the rerun
        # resumes it instead of recomputing.
        ticks = []
        rerun = self.runner(store, ticks, resume=True)
        rerun.run([get_mix("c1_0")])
        assert rerun.tasks_resumed >= 1
        assert len(ticks) == rerun.tasks_total
