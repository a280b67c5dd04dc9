"""Durable, sharded, checksummed on-disk store of per-task sweep results.

The public face is :class:`ResultStore`: save/load/completed_ids over
hash-partitioned append-only segments of CRC32C-checksummed records
(:mod:`repro.engine.store.sharded` for the layout and recovery story,
:mod:`repro.engine.store.format` for the record framing).  The scrub,
repair and compaction behind ``repro store verify|repair|compact`` are
methods of the store itself.
"""

from .format import (
    COMMIT_MARKER,
    MAGIC,
    RECORD_OVERHEAD,
    canonical_body,
    crc32c,
    encode_record,
)
from .sharded import (
    DEFAULT_SHARDS,
    STORE_VERSION,
    CompactReport,
    Problem,
    RepairReport,
    ResultStore,
    VerifyReport,
    atomic_write_json,
)

__all__ = [
    "ResultStore",
    "atomic_write_json",
    "STORE_VERSION",
    "DEFAULT_SHARDS",
    "Problem",
    "VerifyReport",
    "RepairReport",
    "CompactReport",
    "MAGIC",
    "COMMIT_MARKER",
    "RECORD_OVERHEAD",
    "crc32c",
    "canonical_body",
    "encode_record",
]
