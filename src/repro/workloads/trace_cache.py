"""Shared on-disk cache of generated traces.

Trace generation is deterministic in ``(kind, programs, num_sets,
n_accesses, seed)`` — the exact inputs of
:func:`~repro.workloads.mixes.build_mix_traces` and
:func:`~repro.workloads.spec2000.make_benchmark_trace` — so a generated
trace set can be reused by *any* process that derives the same key: engine
workers on this machine, ``repro worker`` processes on another one, or the
Section 2 characterization pipeline.  This module is that reuse layer; the
engine's per-process memo (:mod:`repro.engine.execution`) sits on top of it
as the in-memory tier.

Design points
-------------
* **Keyed by content inputs, verified by content digest.**  The file name
  embeds a hash of the full key; the payload embeds the key itself plus a
  SHA-256 digest over the canonical array bytes.  Every read recomputes the
  digest before any of the entry's data is used — :meth:`TraceCache.load`
  over the loaded columns, :meth:`TraceCache.stream_addrs` in one streamed
  pass over the archive — and a mismatch (torn write survived a crash
  before the atomic rename existed, disk corruption, hand-edited file) is
  treated as a miss and the entry is regenerated, never trusted.
* **Atomic publication.**  Writers serialize to a uniquely-named temp file
  in the cache directory and ``os.replace`` it into place, so readers only
  ever see complete entries.  Concurrent writers of the same key are safe:
  generation is deterministic, so whichever replace lands last publishes
  identical bytes.
* **npz storage.**  Each entry is one uncompressed ``.npz`` holding the
  ``gaps/addrs/writes`` columns of every trace in the set plus a JSON
  metadata record (key echo, trace names, digest).

``REPRO_TRACE_CACHE`` names the default cache directory;
:func:`resolve_cache_root` applies it when no explicit directory is given.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zipfile
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .mixes import WorkloadMix, build_mix_traces
from .trace import Trace

__all__ = [
    "TraceCache",
    "TraceKey",
    "mix_key",
    "benchmark_key",
    "resolve_cache_root",
    "cached_mix_traces",
]

#: Environment variable naming the default cache directory.
ENV_CACHE_DIR = "REPRO_TRACE_CACHE"

#: Bumped when the entry layout changes incompatibly (old entries are
#: simply treated as misses — the cache is always safe to delete).
CACHE_FORMAT = 1

#: ``(kind, programs, num_sets, n_accesses, seed)`` — everything trace
#: generation depends on.  ``kind`` namespaces the generator:
#: ``"mix-<mix_id>"`` for four-program combinations, ``"bench-<name>"``
#: for single characterization traces.
TraceKey = Tuple[str, Tuple[str, ...], int, int, int]


def resolve_cache_root(explicit: str | os.PathLike | None = None) -> str | None:
    """The cache directory to use: *explicit* wins, else ``$REPRO_TRACE_CACHE``."""
    if explicit is not None:
        return os.fspath(explicit)
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    return env or None


def mix_key(mix: WorkloadMix, num_sets: int, n_accesses: int, seed: int) -> TraceKey:
    """Cache key for :func:`~repro.workloads.mixes.build_mix_traces`."""
    return (f"mix-{mix.mix_id}", tuple(mix.programs), num_sets, n_accesses, seed)


def benchmark_key(name: str, num_sets: int, n_accesses: int, seed: int) -> TraceKey:
    """Cache key for :func:`~repro.workloads.spec2000.make_benchmark_trace`."""
    return (f"bench-{name}", (name,), num_sets, n_accesses, seed)


def _key_meta(key: TraceKey) -> dict:
    kind, programs, num_sets, n_accesses, seed = key
    return {
        "kind": kind,
        "programs": list(programs),
        "num_sets": num_sets,
        "n_accesses": n_accesses,
        "seed": seed,
    }


def _checked_meta(meta: dict, key: TraceKey) -> dict:
    """*meta* if it is this format's record for *key*, else ``ValueError``."""
    if meta.get("format") != CACHE_FORMAT or meta.get("key") != _key_meta(key):
        raise ValueError("cache entry does not match its key")
    return meta


#: Bytes per read of the streamed digest pass over an entry archive.
_DIGEST_BLOCK = 1 << 20


def _digest(n_traces: int, columns: Iterable[Tuple[str, int, Iterable]]) -> str:
    """SHA-256 over framed trace columns: the one digest definition.

    *columns* yields ``(dtype_str, length, pieces)`` for every column in
    entry order (``gaps``, ``addrs``, ``writes`` of each trace in turn);
    *pieces* are buffers whose concatenation is the column's bytes.  The
    trace count, each column's dtype and its length are framed into the
    hash, so the digest is unambiguous across trace counts and lengths,
    and it does not depend on how a column is cut into pieces.
    """
    h = hashlib.sha256()
    h.update(f"v{CACHE_FORMAT}:{n_traces}".encode())
    for dtype_str, length, pieces in columns:
        h.update(f":{dtype_str}:{length}:".encode())
        for piece in pieces:
            h.update(piece)
    return h.hexdigest()


def _content_digest(traces: Sequence[Trace]) -> str:
    """The digest of in-memory traces: what :meth:`TraceCache.store` records
    and :meth:`TraceCache.load` checks.  Column dtypes are pinned, and the
    columns contiguous, by :class:`~repro.workloads.trace.Trace`."""
    return _digest(
        len(traces),
        (
            (arr.dtype.str, len(arr), (arr,))
            for trace in traces
            for arr in (trace.gaps, trace.addrs, trace.writes)
        ),
    )


def _archive_digest(archive: zipfile.ZipFile, n_traces: int) -> str:
    """The digest of an open entry archive, read member by member in
    :data:`_DIGEST_BLOCK`-byte pieces, so it costs ``O(block)`` memory."""

    def columns():
        for i in range(n_traces):
            for column in ("gaps", "addrs", "writes"):
                with archive.open(f"{column}_{i}.npy") as member:
                    length, dtype = _read_npy_header(member)
                    yield dtype.str, length, _member_pieces(
                        member, length * dtype.itemsize, _DIGEST_BLOCK
                    )

    return _digest(n_traces, columns())


def _read_npy_header(member) -> Tuple[int, np.dtype]:
    """Validate and return ``(length, dtype)`` of a column ``.npy`` member.

    Leaves *member* positioned at the first data byte, ready for sequential
    reads.  Raises ``ValueError`` for anything the streamed reads cannot
    consume as raw column bytes: Fortran order or ndim != 1.
    """
    version = np.lib.format.read_magic(member)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
    else:
        raise ValueError(f"unsupported npy format version {version}")
    if fortran or len(shape) != 1:
        raise ValueError(f"expected a 1-D C-order array, got {shape} {dtype}")
    return shape[0], dtype


def _member_pieces(member, nbytes: int, block: int) -> Iterator[bytes]:
    """Yield the next *nbytes* of *member* in pieces of at most *block* bytes."""
    while nbytes > 0:
        want = min(nbytes, block)
        raw = member.read(want)
        if len(raw) != want:
            raise ValueError("truncated cache entry member")
        yield raw
        nbytes -= want


class TraceCache:
    """Directory of digest-verified, atomically-written trace sets.

    Instances are cheap (a path plus counters) — engine workers construct
    one per provisioning request from the shipped cache root.  ``hits``/
    ``misses``/``rejected``/``stores`` count this instance's traffic;
    the engine folds ``rejected`` into its per-chunk trace stats (as
    ``cache_rejected``) so recurring cache corruption surfaces in the CLI
    execution summary.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Entries discarded on load (digest/key mismatch, unreadable file).
        self.rejected = 0
        self.stores = 0

    # -- paths -------------------------------------------------------------

    def path_for(self, key: TraceKey) -> Path:
        kind, _, num_sets, n_accesses, seed = key
        tag = hashlib.sha256(
            json.dumps(_key_meta(key), sort_keys=True).encode()
        ).hexdigest()[:12]
        safe_kind = "".join(c if c.isalnum() or c in "-_" else "_" for c in kind)
        return self.root / (
            f"{safe_kind}__{num_sets}s__{n_accesses}a__seed{seed}__{tag}.npz"
        )

    # -- load / store ------------------------------------------------------

    def load(self, key: TraceKey) -> Optional[List[Trace]]:
        """The cached trace set for *key*, or ``None`` on miss.

        Unreadable or tampered entries (bad zip, wrong key echo, digest
        mismatch) count as ``rejected`` misses — callers regenerate and
        overwrite them.
        """
        path = self.path_for(key)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                meta = _checked_meta(json.loads(str(payload["meta"])), key)
                names = meta["names"]
                traces = [
                    Trace(
                        gaps=payload[f"gaps_{i}"],
                        addrs=payload[f"addrs_{i}"],
                        writes=payload[f"writes_{i}"],
                        name=names[i],
                    )
                    for i in range(meta["n_traces"])
                ]
                if _content_digest(traces) != meta["digest"]:
                    raise ValueError("content digest mismatch")
        except Exception:
            # Corrupt/stale entries are regenerated, never trusted or kept.
            self.rejected += 1
            self.misses += 1
            return None
        self.hits += 1
        return traces

    def stream_addrs(self, key: TraceKey, chunk_accesses: int) -> Iterator[np.ndarray]:
        """Yield the entry's (first) trace's address column in fixed-size chunks.

        Entries are uncompressed zip archives (``np.savez``), so a member's
        ``.npy`` payload can be read sequentially without ever materializing
        the whole array — this is how characterization profiles a cached
        paper-scale trace in ``O(chunk)`` memory.  Before the first chunk
        the key echo is checked and the whole entry's content digest is
        recomputed in one streamed pass over the open archive
        (:func:`_archive_digest`, the framing :meth:`load` checks), so no
        chunk of a tampered or corrupt entry is ever yielded.

        Raises ``KeyError`` on a missing entry and ``ValueError`` on a
        rejected one (callers regenerate the trace; the entry counts as
        ``rejected`` either way).
        """
        if chunk_accesses < 1:
            raise ValueError("chunk_accesses must be positive")
        path = self.path_for(key)
        if not path.is_file():
            self.misses += 1
            raise KeyError(f"no cache entry for {key!r}")
        counted_hit = False
        try:
            with zipfile.ZipFile(path) as archive:
                meta = _checked_meta(self._read_meta(archive), key)
                if _archive_digest(archive, meta["n_traces"]) != meta["digest"]:
                    raise ValueError("content digest mismatch")
                with archive.open("addrs_0.npy") as member:
                    length, dtype = _read_npy_header(member)
                    # Counted before the first chunk so an early-stopping
                    # consumer (max_intervals) still registers as a hit;
                    # rolled back below if a read fails mid-stream.
                    self.hits += 1
                    counted_hit = True
                    for raw in _member_pieces(
                        member, length * dtype.itemsize, chunk_accesses * dtype.itemsize
                    ):
                        yield np.frombuffer(raw, dtype=dtype).astype(
                            np.int64, copy=False
                        )
        except Exception as exc:
            # Any unusable entry (bad zip, wrong key echo, digest mismatch,
            # truncated or mis-shaped member) is a rejected miss, as in load().
            if counted_hit:
                self.hits -= 1
            self.rejected += 1
            self.misses += 1
            raise ValueError(f"unusable cache entry {path}: {exc}") from exc

    def _read_meta(self, archive: zipfile.ZipFile) -> dict:
        """The JSON metadata record of an open entry archive."""
        with archive.open("meta.npy") as member:
            return json.loads(str(np.lib.format.read_array(member, allow_pickle=False)))

    def store(self, key: TraceKey, traces: Sequence[Trace]) -> Path:
        """Persist *traces* under *key* atomically; returns the entry path."""
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        meta = {
            "format": CACHE_FORMAT,
            "key": _key_meta(key),
            "n_traces": len(traces),
            "names": [t.name for t in traces],
            "digest": _content_digest(traces),
        }
        arrays = {"meta": np.array(json.dumps(meta, sort_keys=True))}
        for i, trace in enumerate(traces):
            arrays[f"gaps_{i}"] = trace.gaps
            arrays[f"addrs_{i}"] = trace.addrs
            arrays[f"writes_{i}"] = trace.writes
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            # Stream the archive straight into the temp file: paper-scale
            # trace sets run to hundreds of MB, so buffering the whole npz
            # in memory first would double the peak footprint per worker.
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self.stores += 1
        return path


def cached_mix_traces(
    cache: TraceCache | None,
    mix: WorkloadMix,
    num_sets: int,
    n_accesses: int,
    seed: int,
) -> Tuple[List[Trace], str]:
    """A mix's traces through the cache; returns ``(traces, source)``.

    ``source`` is ``"cache"`` or ``"generated"`` — the engine feeds it into
    its per-run trace counters.  With ``cache=None`` this is exactly
    :func:`~repro.workloads.mixes.build_mix_traces`.
    """
    if cache is None:
        return build_mix_traces(mix, num_sets, n_accesses, seed), "generated"
    key = mix_key(mix, num_sets, n_accesses, seed)
    traces = cache.load(key)
    if traces is not None:
        return traces, "cache"
    traces = build_mix_traces(mix, num_sets, n_accesses, seed)
    cache.store(key, traces)
    return traces, "generated"
