"""Bench STORE APPEND: the result store's checksum and save, on both steps.

Times :func:`repro.engine.store.format.crc32c` and
:meth:`~repro.engine.store.ResultStore.save` on record bodies of 0.5, 2
and 8 KiB (a ``small``-scale task's record is about 1.6-2.8 KiB), once
through the C step (:func:`repro.core._ckernel.crc32c`) and once through
the Python step (``format._crc32c_py``, forced by hiding the kernel
library from the store).  Both steps must give the same checksum of every
body.  It prints microseconds per record and writes the best time of each
to ``BENCH_store_append.json``; there is no speed gate.  A save includes
the store's fsync, so its time depends on the file system under
``tmp_path``.  Without the kernel library only the Python step is timed.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from repro.core import _ckernel
from repro.engine import ResultStore
from repro.engine.store import canonical_body, crc32c

#: Record body sizes, in bytes.
BODY_BYTES = (512, 2048, 8192)

#: Checksums and saves timed per body size, step and repeat.
CRC_CALLS = 200
SAVES = 20
REPEATS = 3


@contextlib.contextmanager
def _python_step():
    """The store sees no kernel library, so it takes its Python step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ckernel, "_get_lib", lambda: None)
        mp.setattr(_ckernel, "_REASON", "hidden by the store append bench")
        yield


def _payload(body_bytes: int) -> dict:
    """A payload whose record body is *body_bytes* long."""
    rng = np.random.default_rng(body_bytes)
    blob = rng.bytes(body_bytes).hex()
    overhead = len(canonical_body(
        {"task_id": "t0000", "scenario": None, "payload": {"blob": ""}}))
    return {"blob": blob[:body_bytes - overhead]}


def _time_step(body: bytes, payload: dict, root) -> tuple:
    """Best seconds per checksum and per save, and the body's checksum."""
    crc_s = save_s = math.inf
    for rep in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CRC_CALLS):
            checksum = crc32c(body)
        crc_s = min(crc_s, (time.perf_counter() - t0) / CRC_CALLS)
        with ResultStore(root / f"r{rep}") as store:
            store.initialize({})
            t0 = time.perf_counter()
            for i in range(SAVES):
                store.save(f"t{i:04d}", payload)
            save_s = min(save_s, (time.perf_counter() - t0) / SAVES)
    return crc_s, save_s, checksum


@pytest.mark.benchmark(group="store_append")
def test_store_append_steps(bench_json, tmp_path):
    if _ckernel.lib_available():
        steps = [("c", contextlib.nullcontext), ("python", _python_step)]
    else:
        print(f"\nC kernel library unavailable ({_ckernel.reason()}): "
              "timing the Python step alone")
        steps = [("python", contextlib.nullcontext)]
    rows = []
    print()
    for body_bytes in BODY_BYTES:
        payload = _payload(body_bytes)
        body = canonical_body(
            {"task_id": "t0000", "scenario": None, "payload": payload})
        assert len(body) == body_bytes
        checksums = set()
        for name, step in steps:
            with step():
                crc_s, save_s, checksum = _time_step(
                    body, payload, tmp_path / f"{name}-{body_bytes}")
            checksums.add(checksum)
            rows.append({"step": name, "body_bytes": body_bytes,
                         "crc_us": 1e6 * crc_s, "save_us": 1e6 * save_s})
            print(f"{name:>6} step, {body_bytes / 1024:.1f} KiB body: "
                  f"crc32c {1e6 * crc_s:8.1f} us, save {1e6 * save_s:8.1f} us "
                  "per record")
        assert len(checksums) == 1
    bench_json("store_append", {
        "crc_calls": CRC_CALLS,
        "saves": SAVES,
        "repeats": REPEATS,
        "rows": rows,
    })
