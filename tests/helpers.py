"""Shared helpers for driving L2 schemes directly in tests.

The tiny geometry (16 sets, 4-way, 64 B lines) keeps hand-computed addresses
readable: block address ``tag * 16 + set`` lives in set ``set``.

:func:`live_state` is a scheme's post-run state as plain values, which the
differential tests compare between the reference loop and the kernel.

:func:`run_mix` runs one Table 8 combination the way every experiment does:
through the engine's :class:`~repro.engine.runner.ParallelRunner`, in
process.  :func:`corrupt_and_repair` drops stored task results the way an
operator meets damage: a flipped byte, then ``repair``.

:func:`hide_kernel_library` makes the native library look missing, with a
named reason.  :func:`on_both_steps` runs a test once per step of each
C-or-Python pair (the streaming profiler's step, the trace generator's
step, the store's checksum): the C step, then the no-library step.
:func:`stderr_notices` runs a script in a fresh interpreter and returns
its fallback notices.
:func:`spec_hist` is the profilers' oracle: the per-interval histograms of
the per-access Mattson spec.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cache.stackdist import StackDistanceProfiler
from repro.common.config import CacheGeometry, DsrConfig, SnugConfig, SystemConfig
from repro.core import _ckernel
from repro.engine import ParallelRunner, ResultStore
from repro.experiments.runner import DEFAULT_SCHEMES, ComboResult, RunPlan
from repro.mem.address import core_address_base
from repro.schemes.dsr import DynamicSpillReceive
from repro.schemes.l2s import SharedL2
from repro.schemes.snug import SnugCache

NUM_SETS = 16
ASSOC = 4


def tiny_system(**overrides) -> SystemConfig:
    """A 16-set, 4-way quad-core system with short SNUG epochs."""
    cfg = SystemConfig(
        l2=CacheGeometry(size_bytes=4 << 10, assoc=ASSOC, line_bytes=64),
        snug=SnugConfig(identify_cycles=1_000, group_cycles=10_000),
        dsr=DsrConfig(leader_sets_per_policy=2),
        seed=99,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def run_mix(mix, config: SystemConfig, plan: RunPlan,
            schemes=DEFAULT_SCHEMES) -> ComboResult:
    """One mix's :class:`ComboResult` from the engine's inline backend."""
    [combo] = ParallelRunner(config, plan, schemes=schemes, jobs=0).run([mix])
    return combo


def corrupt_and_repair(store_root, task_ids) -> None:
    """Drop *task_ids* from the result store at *store_root*: flip one byte
    in each task's record (its body still parses and names the task, but no
    longer checksums), then quarantine exactly those records with
    :meth:`ResultStore.repair`, so a ``--resume`` re-simulates them."""
    segments = sorted(Path(store_root).glob("shards/*/seg-*.seg"))
    for task_id in task_ids:
        needle = f'"task_id":"{task_id}"'.encode()
        [segment] = [seg for seg in segments if needle in seg.read_bytes()]
        data = bytearray(segment.read_bytes())
        # Bodies are sorted-key JSON opening with '{"payload":'; turning
        # its "p" into "q" keeps the JSON valid.
        data[data.rindex(b'{"payload":', 0, data.index(needle)) + 2] ^= 0x01
        segment.write_bytes(bytes(data))
    with ResultStore(store_root) as store:
        report = store.repair()
    assert sorted(p.task_id for p in report.quarantined) == sorted(task_ids)


def addr(core: int, set_index: int, tag: int) -> int:
    """Block address of (core, set, tag) in the tiny geometry."""
    return core_address_base(core) + tag * NUM_SETS + set_index


def fill_set(scheme, core: int, set_index: int, n: int, t0: int = 0, start_tag: int = 0):
    """Issue *n* distinct read accesses mapping to one set; returns end time."""
    now = t0
    for k in range(n):
        res = scheme.access(core, addr(core, set_index, start_tag + k), False, now)
        now += res.latency + 1
    return now


def hide_kernel_library(mp: pytest.MonkeyPatch,
                        reason: str = "hidden by the test") -> None:
    """Through *mp*, make the native library look missing for *reason*: the
    library lookup returns None and ``_ckernel.reason()`` names *reason*,
    as it names the cause when a build really fails."""
    mp.setattr(_ckernel, "_get_lib", lambda: None)
    mp.setattr(_ckernel, "_REASON", reason)


def on_both_steps(test):
    """Run *test* once with the C steps when the kernel library is built,
    then once with the no-library steps (forced by
    :func:`hide_kernel_library`): the profiler's and the store checksum's
    Python steps and the generator's NumPy step.  The test keeps its name
    and signature, so fixtures and Hypothesis draws reach it; each draw is
    checked on both steps."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        if _ckernel.lib_available():
            test(*args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            hide_kernel_library(mp)
            test(*args, **kwargs)

    return run


def stderr_notices(script: str, prefix: str, **env_knobs) -> list:
    """The stderr lines starting with *prefix* of *script*, run in a fresh
    interpreter on this checkout's ``src`` with ``REPRO_NO_CKERNEL`` unset
    unless *env_knobs* sets it.  The script must succeed."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_CKERNEL"}
    env.update(PYTHONPATH=str(src), **env_knobs)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stderr.splitlines() if line.startswith(prefix)]


def spec_hist(addrs, num_sets, depth, interval_accesses, max_intervals=None):
    """The spec's ``(intervals, num_sets, depth)`` hit-position histograms
    of *addrs*: a :class:`StackDistanceProfiler` snapshotted every
    *interval_accesses* references, the trailing partial interval dropped,
    and at most *max_intervals* intervals."""
    n_intervals = len(addrs) // interval_accesses
    if max_intervals is not None:
        n_intervals = min(n_intervals, max_intervals)
    spec = StackDistanceProfiler(num_sets, depth)
    hist = np.zeros((n_intervals, num_sets, depth), dtype=np.int64)
    for i in range(n_intervals):
        spec.reference_many(addrs[i * interval_accesses : (i + 1) * interval_accesses])
        hist[i] = [s.hist for s in spec.sets]
        spec.end_interval()
    return hist


def live_state(scheme):
    """The scheme's state as plain values: each cache's resident lines per
    set (all five fields, MRU first), each write buffer's entries in FIFO
    order and its next drain time, bus and DRAM-bank occupancy, DSR's
    PSEL counters and round-robin cursor, and SNUG's stage scalars plus
    each slice's G/T bits, shadow tags and demand-monitor counters.  The
    CC random streams are left out: the compiled core draws them ahead in
    batches, so only the draws consumed are part of the contract."""
    caches = scheme.banks if isinstance(scheme, SharedL2) else scheme.slices
    state = {
        "lines": [[[(line.addr, line.dirty, line.cc, line.f, line.owner)
                    for line in lruset] for lruset in cache.sets]
                  for cache in caches],
        "wbufs": [(list(wbuf._entries.items()), wbuf._next_drain_at)
                  for wbuf in scheme.wbufs],
        "bus_busy_until": scheme.bus._busy_until,
        "dram_bank_free_at": list(scheme.dram._bank_free_at),
    }
    if isinstance(scheme, DynamicSpillReceive):
        state["dsr"] = ([pc.value for pc in scheme.psel], scheme._rr)
    if isinstance(scheme, SnugCache):
        state["snug"] = (
            scheme.stage, scheme._stage_end, scheme.epoch, scheme._spill_rr,
            [(list(meta.gt_taker), [list(sh._tags) for sh in meta.shadows],
              [(mc.counter.value, mc._mod) for mc in meta.monitors])
             for meta in scheme.meta],
        )
    return state
