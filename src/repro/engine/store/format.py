"""The result store's on-disk segment format: framing, checksums, scanning.

A **segment** is an append-only file of records.  Each record is::

    magic   4 B   b"RSr1"                (resync anchor)
    length  4 B   big-endian body length
    crc     4 B   big-endian CRC32C (Castagnoli) over the body
    body    length bytes of canonical JSON
    commit  1 B   0xC3                   (write-ahead commit marker)

The writer appends ``magic..body``, then the commit marker, then fsyncs —
so a record missing its marker (or its tail bytes) was torn by a crash
mid-write, while a *complete* record whose CRC disagrees was corrupted at
rest (bit rot, a bad copy, a hostile edit).  :func:`scan_segment` makes
exactly that distinction:

* **torn** — the trailing region of a segment holds no complete record
  (header or body runs past EOF, or the commit marker never landed).
  Recovery is to truncate the segment back to the last valid record and
  continue; nothing durable is lost because the record was never
  acknowledged as saved.
* **corrupt** — a fully-framed record (magic, plausible length, commit
  marker all present) fails its checksum, or unframed garbage sits between
  two valid records.  These are *quarantined* by ``repair`` — never
  silently dropped — and the scan resynchronizes on the next magic so one
  flipped bit costs one record, not the rest of the segment.

Bodies are canonical JSON (sorted keys, no whitespace), so identical
payloads encode to identical bytes — the store-level face of the engine's
bit-identical-results contract.

The checksum is CRC32C over the classic 256-entry byte table
(:func:`~repro.common.bitops.crc32c_table`).  Every save checksums its
record and every open, load and scrub re-checksums what it reads, so a
byte-at-a-time walk in Python cost about 2% of a ``fig9-11-small`` sweep.
:func:`crc32c` therefore runs the same table walk in C, in the simulation
kernel's library (:func:`repro.core._ckernel.crc32c`), whenever that
library is loaded.  Without it (``REPRO_NO_CKERNEL=1``, no C compiler, or
a failed build) the walk runs in Python, bit-identical, and the first
checksum in the process says so on stderr::

    repro.store: C kernel unavailable (<why>); using the Python step (bit-identical)

Either way the store needs no package beyond the standard library.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ...common.bitops import crc32c_table
from ...core import _ckernel
from ...core.compiled import fallback_notice

__all__ = [
    "MAGIC",
    "COMMIT_MARKER",
    "RECORD_OVERHEAD",
    "crc32c",
    "canonical_body",
    "encode_record",
    "ScanRecord",
    "ScanProblem",
    "scan_segment",
]

#: Record preamble; doubles as the resync anchor after corruption.
MAGIC = b"RSr1"

#: ``(body length, CRC32C(body))`` — both big-endian uint32.
_HEADER = struct.Struct(">II")

#: Trailing commit marker: its absence at EOF distinguishes a torn write
#: (crash mid-append) from at-rest corruption of a completed record.
COMMIT_MARKER = b"\xc3"

#: Bytes a record adds around its body.
RECORD_OVERHEAD = len(MAGIC) + _HEADER.size + len(COMMIT_MARKER)

#: Refuse to believe a length field larger than this (a corrupted header
#: must not send the scanner chasing a 4 GiB phantom record).
_MAX_BODY = 1 << 26

_PREFIX = len(MAGIC) + _HEADER.size


def _crc32c_py(data: bytes, crc: int) -> int:
    """The Python step: :func:`repro.core._ckernel.crc32c`'s signature and
    result, for when the kernel library is not loaded."""
    crc ^= 0xFFFFFFFF
    table = crc32c_table()
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC32C (Castagnoli) of *data*; chainable via the *crc* argument.

    *data* must be :class:`bytes` and *crc* a 32-bit value (a previous
    result); either step then reads exactly ``len(data)`` bytes.
    """
    if not isinstance(data, bytes):
        raise TypeError(f"crc32c takes bytes, not {type(data).__name__}")
    if not isinstance(crc, int) or not 0 <= crc <= 0xFFFFFFFF:
        raise ValueError(f"crc32c: crc {crc!r} is not a 32-bit value")
    if _ckernel.lib_available():
        return _ckernel.crc32c(data, crc)
    fallback_notice(
        f"C kernel unavailable ({_ckernel.reason()})",
        source="repro.store",
        fallback="the Python step",
    )
    return _crc32c_py(data, crc)


def canonical_body(record: dict) -> bytes:
    """*record* as canonical JSON bytes (sorted keys, no whitespace).

    ``json`` serializes floats via ``repr`` (shortest round-trip form), so
    identical payloads always produce identical bytes — which is what lets
    two stores of the same sweep be compared record-for-record.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def encode_record(body: bytes) -> bytes:
    """Frame one body as a complete record (magic, header, body, marker)."""
    return MAGIC + _HEADER.pack(len(body), crc32c(body)) + body + COMMIT_MARKER


@dataclass(frozen=True)
class ScanRecord:
    """One valid record found by :func:`scan_segment`."""

    offset: int
    end: int
    body: bytes


@dataclass(frozen=True)
class ScanProblem:
    """One invalid region found by :func:`scan_segment`.

    ``kind`` is ``"torn"`` (trailing incomplete write; recover by
    truncating at ``offset``) or ``"corrupt"`` (checksum failure or
    unframed garbage; recover by quarantining ``[offset, end)``).
    ``body`` carries the framed-but-checksum-bad body bytes when they
    exist, so diagnostics can best-effort recover the task id.
    """

    offset: int
    end: int
    kind: str
    reason: str
    body: Optional[bytes] = None


def scan_segment(data: bytes) -> Tuple[List[ScanRecord], List[ScanProblem]]:
    """Parse a segment's bytes into valid records and invalid regions.

    The scan is total: every byte of *data* lands in exactly one record or
    one problem region.  A ``"torn"`` problem is always last (it runs to
    EOF by definition); ``"corrupt"`` problems may appear anywhere and the
    scan resynchronizes on the next record magic after each one.
    """
    records: List[ScanRecord] = []
    problems: List[ScanProblem] = []
    pos, n = 0, len(data)
    while pos < n:
        if data[pos : pos + len(MAGIC)] == MAGIC:
            if pos + _PREFIX > n:
                problems.append(ScanProblem(
                    pos, n, "torn",
                    "record header runs past end of segment "
                    "(torn by an interrupted write)",
                ))
                return records, problems
            length, crc = _HEADER.unpack_from(data, pos + len(MAGIC))
            end = pos + _PREFIX + length + len(COMMIT_MARKER)
            if length <= _MAX_BODY and end <= n:
                body = data[pos + _PREFIX : end - 1]
                if data[end - 1 : end] == COMMIT_MARKER:
                    if crc32c(body) == crc:
                        records.append(ScanRecord(pos, end, body))
                        pos = end
                        continue
                    # Fully framed (magic + plausible length + commit
                    # marker) but the checksum disagrees: at-rest
                    # corruption of exactly this record.
                    problems.append(ScanProblem(
                        pos, end, "corrupt",
                        f"checksum mismatch (stored {crc:#010x}, "
                        f"computed {crc32c(body):#010x})",
                        body=body,
                    ))
                    pos = end
                    continue
            elif length <= _MAX_BODY and end > n:
                # The header is plausible but the body runs past EOF.  If a
                # later magic exists the *length field* was corrupted
                # mid-file; with no later record this is the classic torn
                # tail of an interrupted append.
                if data.find(MAGIC, pos + len(MAGIC)) == -1:
                    problems.append(ScanProblem(
                        pos, n, "torn",
                        f"record claims {length} body bytes but the segment "
                        "ends first (torn by an interrupted write)",
                    ))
                    return records, problems
        # Unframed bytes (no magic here, an absurd length, or a missing
        # commit marker): resynchronize on the next magic.
        nxt = data.find(MAGIC, pos + 1)
        if nxt == -1:
            problems.append(ScanProblem(
                pos, n, "torn",
                "trailing bytes form no complete record "
                "(torn by an interrupted write)",
            ))
            return records, problems
        problems.append(ScanProblem(
            pos, nxt, "corrupt",
            "unframed bytes where a record should start "
            "(corrupted framing or a flipped length/marker byte)",
        ))
        pos = nxt
    return records, problems
