"""Durable sharded result store: hash-partitioned append-only segments.

Layout::

    <root>/manifest.json            -- config/plan/schemes (+ scenario) stamp
    <root>/shards/<NN>/seg-<N>.seg  -- append-only record segments
    <root>/quarantine/              -- corrupt records set aside by repair

Each finished task is one record (:mod:`repro.engine.store.format`) in the
shard ``sha256(task_id) % shards``.  There is no separate index file to
keep consistent with the data: the per-shard index is rebuilt by scanning
the segments on open, and the write-ahead commit marker at the end of each
record makes the scan unambiguous.  Durability discipline per save is
*record bytes, then commit marker, then fsync* — a record either replays
fully or is a torn tail that open() truncates away, so recovery after
``kill -9`` is "drop the one unacknowledged record and continue".

Within a shard, later records supersede earlier ones for the same task id
(last-wins), which is what makes both re-saves and crash-interrupted
compaction safe.  Superseded bytes are reclaimed only by an explicit
compaction (:meth:`ResultStore.compact`, ``repro store compact``).

Corruption at rest (a record that is fully framed but fails its CRC32C)
is never silently dropped: :meth:`ResultStore.verify` reports each bad
record with its segment, offset, and best-effort task id, and
:meth:`ResultStore.repair` quarantines exactly those bytes under
``<root>/quarantine/`` so a subsequent ``--resume`` re-simulates only the
affected tasks.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, Iterator, List, Optional, Set, Tuple

from ...common.errors import EngineError
from .format import ScanProblem, canonical_body, encode_record, scan_segment

__all__ = [
    "ResultStore",
    "STORE_VERSION",
    "DEFAULT_SHARDS",
    "Problem",
    "VerifyReport",
    "RepairReport",
    "CompactReport",
]

#: Bumped when the store layout or result schema changes incompatibly; a
#: manifest stamped with any other version is refused.
STORE_VERSION = 2

#: Shard count for newly created stores.  Reopening adopts whatever count
#: the store was created with (the scan covers every shard regardless).
DEFAULT_SHARDS = 8

#: Rotate a shard's active segment once it grows past this.
_ROTATE_BYTES = 4 << 20

_SEGMENT_GLOB = "seg-*.seg"


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_json(
    path: Path, payload: dict, *, sync: bool = True
) -> None:
    """Atomic-replace JSON write with full fsync discipline.

    The temp file is fsynced before the rename and the parent directory
    after it, so a power cut can't leave an empty-but-named file — the
    failure mode of a bare ``os.replace``.  ``sync=False`` keeps the
    atomic-replace (readers never observe a torn file) but skips both
    fsyncs, for callers whose records are recoverable and written often
    enough that durability-per-write would dominate.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True))
        if sync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if sync:
        _fsync_dir(path.parent)


def _comparable(manifest: dict) -> dict:
    """A manifest reduced to its identity-relevant fields.

    The scenario *name* is cosmetic (the content hash is the identity),
    and the ``store`` section describes physical layout (shard count),
    not what was simulated — neither may block a resume.
    """
    out = json.loads(json.dumps(manifest))
    scenario = out.get("scenario")
    if isinstance(scenario, dict):
        scenario.pop("name", None)
    out.pop("store", None)
    return out


#: Why ``verify`` flags, and ``repair`` quarantines, a record that
#: checksums clean but :func:`_result_task_id` rejects.
_NOT_A_RESULT = (
    "record checksums clean but is not a result record (it lacks a task_id "
    "string or a payload object)"
)


def _result_task_id(body: bytes) -> Optional[str]:
    """The task id of a result record's body, or None for any other body:
    one that is not JSON, or that lacks a ``task_id`` string or a
    ``payload`` object (as the tombstones older stores wrote do)."""
    try:
        record = json.loads(body)
    except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
        return None
    if not isinstance(record, dict):
        return None
    task_id = record.get("task_id")
    if isinstance(task_id, str) and isinstance(record.get("payload"), dict):
        return task_id
    return None


@dataclass(frozen=True)
class _Entry:
    """Index entry: where a task's latest record lives."""

    segment: Path
    offset: int
    length: int


@dataclass(frozen=True)
class Problem:
    """One invalid on-disk region, located and explained for the operator."""

    segment: Path
    offset: int
    end: int
    kind: str  # "torn" | "corrupt"
    reason: str
    task_id: Optional[str] = None

    def message(self) -> str:
        who = f" (task {self.task_id!r})" if self.task_id else ""
        if self.kind == "torn":
            remedy = (
                "recovered automatically on the next open (the unacknowledged "
                "tail is truncated), or explicitly by `repro store repair`"
            )
        else:
            remedy = (
                "run `repro store repair` to quarantine this record, then "
                "re-run with --resume to re-simulate just the affected task"
            )
        return (
            f"{self.segment}: bytes {self.offset}..{self.end}{who}: "
            f"{self.kind} record — {self.reason}; {remedy}"
        )


@dataclass
class VerifyReport:
    """Result of a read-only scrub of every segment in the store."""

    root: Path
    shards: int
    segments: int
    records: int
    live: int
    superseded: int
    problems: List[Problem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        lines = [
            f"store {self.root}: {self.shards} shards, {self.segments} segments, "
            f"{self.records} records ({self.live} live, "
            f"{self.superseded} superseded)"
        ]
        for problem in self.problems:
            lines.append(problem.message())
        lines.append(
            "verify OK: every record checksums clean"
            if self.ok
            else f"verify FAILED: {len(self.problems)} problem(s) found"
        )
        return "\n".join(lines)


@dataclass
class RepairReport:
    """What :meth:`ResultStore.repair` did: quarantines and truncations."""

    root: Path
    quarantined: List[Problem] = field(default_factory=list)
    truncated: List[Problem] = field(default_factory=list)
    quarantine_dir: Optional[Path] = None

    @property
    def changed(self) -> bool:
        return bool(self.quarantined or self.truncated)

    def summary(self) -> str:
        if not self.changed:
            return f"store {self.root}: nothing to repair"
        lines = []
        for problem in self.quarantined:
            who = f" (task {problem.task_id!r})" if problem.task_id else ""
            lines.append(
                f"quarantined {self.quarantine_dir}/...{who}: bytes "
                f"{problem.offset}..{problem.end} of {problem.segment} — "
                f"{problem.reason}"
            )
        for problem in self.truncated:
            lines.append(
                f"truncated torn tail of {problem.segment} at byte "
                f"{problem.offset} — {problem.reason}"
            )
        lines.append(
            f"repair done: {len(self.quarantined)} record(s) quarantined, "
            f"{len(self.truncated)} torn tail(s) truncated; re-run with "
            "--resume to re-simulate the quarantined tasks"
        )
        return "\n".join(lines)


@dataclass
class CompactReport:
    """What compaction reclaimed, per the store as a whole."""

    root: Path
    shards_compacted: int = 0
    records_dropped: int = 0
    bytes_reclaimed: int = 0

    def summary(self) -> str:
        if not self.shards_compacted:
            return f"store {self.root}: nothing to compact"
        return (
            f"store {self.root}: compacted {self.shards_compacted} shard(s), "
            f"dropped {self.records_dropped} superseded record(s), "
            f"reclaimed {self.bytes_reclaimed} bytes"
        )


class ResultStore:
    """Sharded, checksummed, crash-recoverable store of per-task results."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / "manifest.json"
        self.shards_dir = self.root / "shards"
        self.quarantine_dir = self.root / "quarantine"
        self._num_shards: Optional[int] = None
        self._scenario_hash: Optional[str] = None
        self._opened = False
        self._index: Dict[str, _Entry] = {}
        self._active: Dict[int, Tuple[Path, IO[bytes], int]] = {}
        self._lock = threading.RLock()

    # -- lifecycle ---------------------------------------------------------

    def initialize(self, manifest: dict) -> None:
        """Create the store (or reopen it, verifying the manifest matches).

        *manifest* must be JSON-native.  Reopening with a different manifest
        raises :class:`EngineError`: results produced under another
        config/plan are not comparable and must not be mixed.  A new store
        gets :data:`DEFAULT_SHARDS` shards; reopening adopts the manifest's
        count.
        """
        with self._lock:
            existing = self._read_manifest_guarded()
            shards = (
                ((existing or {}).get("store") or {}).get("shards")
                or DEFAULT_SHARDS
            )
            stamped = {
                "store_version": STORE_VERSION,
                "store": {"shards": shards},
                **manifest,
            }
            # Normalize through JSON so tuples/lists etc. compare equal.
            stamped = json.loads(json.dumps(stamped))
            self.shards_dir.mkdir(parents=True, exist_ok=True)
            if existing is not None:
                if _comparable(existing) != _comparable(stamped):
                    raise EngineError(self._mismatch_message(existing, stamped))
            else:
                atomic_write_json(self.manifest_path, stamped)
            self._num_shards = shards
            scenario = stamped.get("scenario") or {}
            self._scenario_hash = scenario.get("hash")

    def _read_manifest_guarded(self) -> Optional[dict]:
        """The on-disk manifest, or None; raises on damage or another version."""
        if not self.manifest_path.exists():
            return None
        try:
            existing = json.loads(self.manifest_path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise EngineError(
                f"unreadable store manifest {self.manifest_path}: {exc}; "
                "the store directory is damaged — delete it (or point at a "
                "fresh one) and re-run"
            ) from None
        version = existing.get("store_version")
        if version != STORE_VERSION:
            raise EngineError(
                f"result store {self.root} has store_version {version}, but "
                f"this build reads only store_version {STORE_VERSION}; point "
                "--store at a fresh directory and re-run"
            )
        return existing

    def _mismatch_message(self, existing: dict, stamped: dict) -> str:
        """Actionable description of a manifest conflict.

        When both manifests carry a scenario stamp (every CLI run does since
        the scenario layer), name the two scenarios and their content hashes
        — "which run produced this store" beats "some parameter differs".
        """
        old = existing.get("scenario") or {}
        new = stamped.get("scenario") or {}
        if old.get("hash") != new.get("hash") and (old or new):
            def label(stamp: dict) -> str:
                if not stamp:
                    return "an unstamped (pre-scenario or API-driven) run"
                return (
                    f"scenario {stamp.get('name', '?')!r} "
                    f"(hash {str(stamp.get('hash', '?'))[:12]})"
                )

            return (
                f"result store {self.root} holds results produced by "
                f"{label(old)}, but this run is {label(new)}; resuming would "
                "merge incomparable results — use a fresh --store directory, "
                "or re-run the scenario that created this store"
            )
        return (
            f"result store {self.root} was created with a different "
            "config/plan/scheme set; use a fresh store directory "
            "(or the matching parameters) instead of mixing results"
        )

    def close(self) -> None:
        """Flush, fsync and release every open segment handle."""
        with self._lock:
            self._close_handles()
            self._opened = False
            self._index.clear()

    def _close_handles(self) -> None:
        for _path, handle, _offset in self._active.values():
            try:
                handle.flush()
                os.fsync(handle.fileno())
            finally:
                handle.close()
        self._active.clear()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- opening / scanning ------------------------------------------------

    def _require_layout(self) -> None:
        """Adopt shard count + scenario hash from disk when not initialized."""
        if self._num_shards is not None:
            return
        manifest = self._read_manifest_guarded()
        if manifest is None:
            raise EngineError(
                f"no result store at {self.root} (manifest.json is missing); "
                "create one by running a sweep with --store, or point at an "
                "existing store directory"
            )
        self._num_shards = (manifest.get("store") or {}).get(
            "shards", DEFAULT_SHARDS
        )
        scenario = manifest.get("scenario") or {}
        self._scenario_hash = scenario.get("hash")

    def _shard_of(self, task_id: str) -> int:
        digest = hashlib.sha256(task_id.encode()).digest()
        return int.from_bytes(digest[:4], "big") % (self._num_shards or 1)

    def _shard_dir(self, shard: int) -> Path:
        return self.shards_dir / f"{shard:02d}"

    def _segments_of(self, shard: int) -> List[Path]:
        shard_dir = self._shard_dir(shard)
        if not shard_dir.is_dir():
            return []
        return sorted(shard_dir.glob(_SEGMENT_GLOB))

    def _iter_segments(self) -> Iterator[Tuple[int, Path]]:
        self._require_layout()
        for shard in range(self._num_shards or 0):
            for segment in self._segments_of(shard):
                yield shard, segment

    def _ensure_open(self) -> None:
        """Build the in-memory index by scanning every shard's segments.

        Torn tails (crash-interrupted appends) are truncated here — the
        records were never acknowledged, so dropping them is the recovery.
        Fully-framed records that fail their checksum, and clean ones that
        are not result records, are *kept on disk* but left out of the
        index (an earlier record for the same task stays indexed);
        ``verify`` names them and ``repair`` quarantines them.
        """
        if self._opened:
            return
        with self._lock:
            if self._opened:
                return
            self._require_layout()
            self._index.clear()
            for _shard, segment in self._iter_segments():
                data = segment.read_bytes()
                records, problems = scan_segment(data)
                torn = [p for p in problems if p.kind == "torn"]
                if torn:
                    with open(segment, "r+b") as handle:
                        handle.truncate(torn[0].offset)
                        handle.flush()
                        os.fsync(handle.fileno())
                for record in records:
                    task_id = _result_task_id(record.body)
                    if task_id is None:
                        # Checksums clean but the body is not a result
                        # record: verify() reports it.
                        continue
                    # Last wins: a later record supersedes an earlier one.
                    self._index[task_id] = _Entry(
                        segment, record.offset, record.end - record.offset
                    )
            self._opened = True

    # -- writing -----------------------------------------------------------

    def _writable_segment(self, shard: int) -> Tuple[Path, IO[bytes], int]:
        active = self._active.get(shard)
        if active is not None and active[2] < _ROTATE_BYTES:
            return active
        if active is not None:
            _path, handle, _offset = active
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
            del self._active[shard]
        shard_dir = self._shard_dir(shard)
        shard_dir.mkdir(parents=True, exist_ok=True)
        existing = self._segments_of(shard)
        if existing and existing[-1].stat().st_size < _ROTATE_BYTES:
            path = existing[-1]
            created = False
        else:
            last = int(existing[-1].stem.split("-")[1]) if existing else 0
            path = shard_dir / f"seg-{last + 1:06d}.seg"
            created = True
        handle = open(path, "ab")
        if created:
            # The segment must itself survive a crash before any record in
            # it can: fsync the directory that names it.
            _fsync_dir(shard_dir)
        self._active[shard] = (path, handle, handle.tell())
        return self._active[shard]

    def _append(self, task_id: str, body: bytes) -> None:
        shard = self._shard_of(task_id)
        record = encode_record(body)
        with self._lock:
            path, handle, offset = self._writable_segment(shard)
            handle.write(record)
            handle.flush()
            os.fsync(handle.fileno())
            self._active[shard] = (path, handle, offset + len(record))
            self._index[task_id] = _Entry(path, offset, len(record))

    def save(self, task_id: str, payload: dict) -> None:
        """Persist one finished task durably (record, commit marker, fsync)."""
        self._ensure_open()
        body = canonical_body(
            {
                "task_id": task_id,
                "scenario": self._scenario_hash,
                "payload": payload,
            }
        )
        self._append(task_id, body)

    # -- reading -----------------------------------------------------------

    def completed_ids(self) -> Set[str]:
        """Task ids with a valid (checksummed) result."""
        if not self.shards_dir.is_dir() and not self.manifest_path.exists():
            return set()
        self._ensure_open()
        return set(self._index)

    def _record_body(self, task_id: str) -> bytes:
        self._ensure_open()
        entry = self._index.get(task_id)
        if entry is None:
            raise EngineError(
                f"no stored result for task {task_id!r} in {self.root}"
            )
        with open(entry.segment, "rb") as handle:
            handle.seek(entry.offset)
            data = handle.read(entry.length)
        records, problems = scan_segment(data)
        if problems or len(records) != 1:
            raise EngineError(
                f"stored result for task {task_id!r} is corrupt: "
                f"{entry.segment} bytes {entry.offset}.."
                f"{entry.offset + entry.length} no longer checksums clean; "
                "run `repro store repair` to quarantine it, then re-run with "
                "--resume to recompute just the affected task"
            )
        return records[0].body

    def load(self, task_id: str) -> dict:
        """Load one finished task; raises :class:`EngineError` if absent/corrupt.

        The record's checksum is re-verified on every read — corruption that
        lands *between* open and load is still caught, with a message naming
        the segment and the ``repair`` + ``--resume`` remedy.
        """
        return json.loads(self._record_body(task_id))["payload"]

    def payload_bytes(self, task_id: str) -> bytes:
        """The task's canonical record body, for byte-for-byte comparison.

        Two stores of the same sweep hold byte-identical bodies for every
        task — the store-level face of the bit-identical-merge contract.
        """
        return self._record_body(task_id)

    # -- scrub / repair / compact -----------------------------------------

    def _scan_readonly(self) -> Iterator[
        Tuple[int, Path, List, List[ScanProblem]]
    ]:
        for shard, segment in self._iter_segments():
            records, problems = scan_segment(segment.read_bytes())
            yield shard, segment, records, problems

    @staticmethod
    def _named_task_id(body: Optional[bytes]) -> Optional[str]:
        """The task id a damaged or non-result record's *body* names, if
        any, for the operator's report."""
        if body is None:
            return None
        try:
            task_id = json.loads(body).get("task_id")
        except (json.JSONDecodeError, ValueError, AttributeError):
            return None
        return task_id if isinstance(task_id, str) else None

    def verify(self) -> VerifyReport:
        """Read-only scrub: re-checksum every record in every segment.

        Reports torn tails, checksum failures, and clean records that are
        not result records, with per-record locations and remedies;
        mutates nothing.
        """
        self._require_layout()
        report = VerifyReport(
            root=self.root,
            shards=self._num_shards or 0,
            segments=0,
            records=0,
            live=0,
            superseded=0,
        )
        per_task_count: Dict[str, int] = {}
        for _shard, segment, records, problems in self._scan_readonly():
            report.segments += 1
            for problem in problems:
                report.problems.append(
                    Problem(
                        segment=segment,
                        offset=problem.offset,
                        end=problem.end,
                        kind=problem.kind,
                        reason=problem.reason,
                        task_id=self._named_task_id(problem.body),
                    )
                )
            for record in records:
                report.records += 1
                task_id = _result_task_id(record.body)
                if task_id is None:
                    report.problems.append(
                        Problem(
                            segment=segment,
                            offset=record.offset,
                            end=record.end,
                            kind="corrupt",
                            reason=_NOT_A_RESULT,
                            task_id=self._named_task_id(record.body),
                        )
                    )
                    continue
                per_task_count[task_id] = per_task_count.get(task_id, 0) + 1
        report.live = len(per_task_count)
        report.superseded = sum(count - 1 for count in per_task_count.values())
        return report

    def repair(self) -> RepairReport:
        """Quarantine corrupt records and truncate torn tails, in place.

        Each corrupt region's raw bytes land in ``<root>/quarantine/`` next
        to a JSON sidecar recording where they came from and why — repair
        removes damage from the store's replay path without destroying the
        evidence.  A record that checksums clean but is not a result record
        counts as corrupt here, as ``verify`` reports it.  Segments are
        rewritten atomically (tmp + fsync + rename + directory fsync).
        """
        self._require_layout()
        report = RepairReport(root=self.root, quarantine_dir=self.quarantine_dir)
        with self._lock:
            self._close_handles()
            self._opened = False
            for shard, segment, records, problems in self._scan_readonly():
                strays = [r for r in records if _result_task_id(r.body) is None]
                if strays:
                    records = [r for r in records if r not in strays]
                    problems = sorted(problems + [
                        ScanProblem(r.offset, r.end, "corrupt", _NOT_A_RESULT,
                                    body=r.body)
                        for r in strays
                    ], key=lambda p: p.offset)
                if not problems:
                    continue
                corrupt = [p for p in problems if p.kind == "corrupt"]
                torn = [p for p in problems if p.kind == "torn"]
                data = segment.read_bytes()
                for problem in corrupt:
                    self._quarantine(shard, segment, data, problem, report)
                for problem in torn:
                    report.truncated.append(
                        Problem(
                            segment=segment,
                            offset=problem.offset,
                            end=problem.end,
                            kind="torn",
                            reason=problem.reason,
                        )
                    )
                kept = b"".join(data[r.offset : r.end] for r in records)
                tmp = segment.with_suffix(".seg.tmp")
                with open(tmp, "wb") as handle:
                    handle.write(kept)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, segment)
                _fsync_dir(segment.parent)
        return report

    def _quarantine(
        self,
        shard: int,
        segment: Path,
        data: bytes,
        problem: ScanProblem,
        report: RepairReport,
    ) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        task_id = self._named_task_id(problem.body)
        stem = f"shard{shard:02d}-{segment.stem}-{problem.offset:08d}"
        raw = self.quarantine_dir / f"{stem}.bin"
        raw.write_bytes(data[problem.offset : problem.end])
        atomic_write_json(
            self.quarantine_dir / f"{stem}.json",
            {
                "segment": str(segment.relative_to(self.root)),
                "offset": problem.offset,
                "end": problem.end,
                "kind": problem.kind,
                "reason": problem.reason,
                "task_id": task_id,
            },
        )
        _fsync_dir(self.quarantine_dir)
        report.quarantined.append(
            Problem(
                segment=segment,
                offset=problem.offset,
                end=problem.end,
                kind=problem.kind,
                reason=problem.reason,
                task_id=task_id,
            )
        )

    def compact(self) -> CompactReport:
        """Reclaim superseded records, shard by shard.

        A shard is rewritten as one fresh highest-numbered segment holding
        only the latest record per task (sorted by task id, so the
        result is deterministic), after which the old segments are deleted.
        Crash-safety needs no journal: if the delete never happens, the new
        segment is last in replay order and last-wins reconstruction yields
        the identical index.
        """
        self._require_layout()
        report = CompactReport(root=self.root)
        with self._lock:
            self._close_handles()
            self._opened = False
            for shard in range(self._num_shards or 0):
                segments = self._segments_of(shard)
                if not segments:
                    continue
                latest: Dict[str, bytes] = {}
                total_bytes = 0
                record_count = 0
                for segment in segments:
                    data = segment.read_bytes()
                    total_bytes += len(data)
                    records, problems = scan_segment(data)
                    if any(p.kind == "corrupt" for p in problems):
                        raise EngineError(
                            f"shard {shard:02d} of {self.root} has corrupt "
                            "records; run `repro store repair` before "
                            "compacting so nothing is silently destroyed"
                        )
                    for record in records:
                        record_count += 1
                        task_id = _result_task_id(record.body)
                        if task_id is None:
                            raise EngineError(
                                f"shard {shard:02d} of {self.root} has a "
                                "record that is not a result record; run "
                                "`repro store repair` before compacting"
                            )
                        latest[task_id] = record.body
                if record_count == len(latest) and len(segments) == 1:
                    continue  # nothing superseded, nothing to merge
                last = int(segments[-1].stem.split("-")[1])
                shard_dir = self._shard_dir(shard)
                fresh = shard_dir / f"seg-{last + 1:06d}.seg"
                with open(fresh, "wb") as handle:
                    for task_id in sorted(latest):
                        handle.write(encode_record(latest[task_id]))
                    handle.flush()
                    os.fsync(handle.fileno())
                _fsync_dir(shard_dir)
                for segment in segments:
                    segment.unlink()
                _fsync_dir(shard_dir)
                report.shards_compacted += 1
                report.records_dropped += record_count - len(latest)
                report.bytes_reclaimed += total_bytes - fresh.stat().st_size
        return report
