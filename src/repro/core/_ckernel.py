"""Native (C) kernel of the compiled simulation core.

The executable spec is :meth:`CmpSystem.run <repro.core.cmp.CmpSystem.run>`
over its :class:`~repro.core.cpu.TraceCore` s, plus the schemes'
``access()``; this module is its production transcription: a single C
translation unit (embedded below as a string) holding one
structure-of-arrays event loop for all six schemes, compiled **on
first use with the system C compiler** (no new package is installed) and
loaded through :mod:`ctypes`.  The build is cached on disk keyed by a hash
of the source, the compiler flags and the resolved compiler path, so each
revision compiles exactly once per machine and toolchain.

The kernel's interface is declared once, in Python: the scalar inputs
(:data:`_PARAMS`), the array inputs (:data:`_SLOTS`, plus the ``double``
ring ``coin_buf``), the index names of the ``ms`` and ``rs`` arrays and of
the return codes, and the stat-counter keys.  :func:`_c_interface` emits
the C enums and the ``Ctx`` struct from those tables into the source, and
:class:`_Ctx` takes its :mod:`ctypes` fields from the same tables, so the
two sides cannot drift apart.  The wrapper sets the scalars by name, binds
each array by slot name after checking it (:func:`_bind_arrays`), and
passes the struct by reference.

:func:`run_kernel` steps the system the spec would step — its scheme and
its own cores — and starts and ends the run as the spec does
(:meth:`CmpSystem._start_run`, :meth:`CmpSystem._finish_run`).
Everything mutable lives in preallocated ``int64`` NumPy arrays; the
wrapper encodes the live system state into them and runs the kernel.
State that nothing has read is encoded without being built: a new cache
(no ``LruSet`` yet) is zeros, and a new SNUG slice (no ``ShadowSet`` or
``DemandMonitorCounter`` yet) is empty shadows and monitors at the
counter reset value with mod 0.  The
trace columns are not copied: slot ``t_cols`` holds the addresses of each
core's trace columns (:data:`_TRACE_COLS`, each checked by name first,
:func:`_trace_columns`), which the C side reads in place.  The issue-gap
column is the trace's ``gaps`` itself at ``base_cpi`` 1.0, the value of
every preset; any other CPI gets one scaled copy per core for the call.
The wrapper then merges cores, stat counters, write buffers, bus, DRAM,
DSR state and SNUG's stage scalars and G/T bits back into the real
objects at once — stat-counter *first-touch order* included, reproduced
via stamp arrays, because ``SimResult.to_dict()`` round-trips through
JSON where dict insertion order is part of byte-identity.  The final
cache lines stay in the ``line_addr``/``occ`` arrays: each slice or bank
gets a fill function over its views of them (:func:`_fill_lines`,
through :meth:`~repro.cache.cache.SetAssocCache.defer_sets`) and builds
its :class:`~repro.cache.block.CacheLine` objects on the first read of
its ``sets``, so a run whose lines nothing reads never decodes them.
SNUG's shadow tags and monitors stay in ``sh_addr``/``sh_len``/
``mon_val``/``mon_mod`` the same way (:func:`_fill_snug_state`, through
``_SnugSlice.defer_state``), built on the first read of a slice's
``shadows`` or ``monitors``.

Each access does little work in C.  Each cached line is one packed word,
``addr << 9 | meta`` (:data:`_META_BITS`), so a set is one ``int64`` row
that a lookup walks and shifts in one pass.  The loop keeps every core's
next trace record in a per-core array and prefetches its set row when the
core steps; it walks the requester's own set once, moving a hit to MRU in
that pass or, on a miss, shifting the set one way toward LRU for the
demand fill; and it skips a peer probe into a set that hosts no
cooperatively cached line.  A per-set count of hosted lines (slot
``hcnt``) makes that skip exact: SNUG's probes accept only hosted lines,
and CC's and DSR's accept any line but can find only a hosted one when no
two cores' traces share an address (param ``disjoint``, from each trace's
address range), so aliased traces probe every peer.

The kernel is resumable: whenever the C function returns, all loop state
(per-core cursors and times, event count, finish countdown, round-robin
cursors, SNUG stage machinery) is in the arrays, so it can return to
Python mid-run and be re-entered.  During a call the per-core state and
the event and remaining counts sit in locals of ``run_kernel``, loaded on
entry and written back on every exit.  Two exits use that:

* ``RC_RNG`` — CC's random spills stay exact without calling back into
  Python per draw: coin and peer-pick values are prefetched from the
  scheme's real ``numpy.random.Generator`` streams into ring buffers
  (batch draws are elementwise-identical to repeated scalar draws), and the
  kernel exits when a buffer runs low so the wrapper can top it up.
* ``RC_LATCH`` — SNUG or SNUG-Intra with an attached demand monitor
  (``scheme.monitor``).  The monitor observes exactly ``(core, trace
  address)`` on every access, so between two Stage-I latches each core's
  observed stream is a contiguous, wrapping slice of its own trace.  The
  kernel stops at each IDENTIFY->GROUP latch *before* the access that
  crosses it (with the event count rolled back, so budgets and the budget
  error match the reference); the wrapper feeds each core's slice since the
  previous hand-off to the monitor, calls ``monitor.latch()``, writes the
  taker bits into the G/T input array and re-enters.

The same translation unit holds the streaming stack-distance profiler's
step, ``profile_feed`` (:func:`profile_feed` checks its arrays and calls
it): :class:`~repro.cache.stackdist_stream.StreamingProfiler` steps its
bounded per-set LRU stacks through it whenever the library is loaded —
in every monitored SNUG run's online demand monitor, and in every
characterization (``characterize_trace`` and ``characterize_stream``).
It also holds the trace generator's step, ``trace_fill`` (:func:`trace_fill`
checks its arrays and calls it): whenever the library is loaded,
:func:`~repro.workloads.synthetic.generate_trace` turns each phase's NumPy
draws into block addresses through it, in one pass with per-set counters.
Its fourth function is the result store's record checksum, ``crc32c``
(:func:`crc32c`; :func:`repro.engine.store.format.crc32c` checks its
arguments and calls it whenever the library is loaded), one step per byte
over a table generated into the source.  None of the four keeps mutable
static state.

:func:`decline_reason` names the systems the kernel does not take — no
library (``REPRO_NO_CKERNEL=1``, no C compiler, or a failed build), more
than 64 cores, a spill scheme on one core, trace addresses that reach
2**54 (too wide for a packed line word; core-rebased traces, at
``core_id << 48``, never reach it), or caches that already hold state;
:class:`~repro.core.compiled.CompiledCmpSystem` runs those on the
spec's own loop (:meth:`CmpSystem.run <repro.core.cmp.CmpSystem.run>`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from enum import IntEnum
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from ..cache.block import CacheLine
from ..cache.lruset import LruSet
from ..cache.satcounter import DemandMonitorCounter
from ..cache.shadowset import ShadowSet
from ..common.bitops import crc32c_table
from ..common.errors import SimulationError
from ..schemes.base import Outcome
from .cmp import CmpSystem, SimResult, budget_exhausted_error

__all__ = ["run_kernel", "profile_feed", "trace_fill", "crc32c",
           "decline_reason", "reason", "lib_available"]

#: Outcome keys in enum order (the reference core's prepopulated-dict order).
_OUT_KEYS = tuple(o.value for o in Outcome)

#: Address-only snoop payload (mirrors ``interconnect.bus.ADDRESS_BYTES``).
_ADDRESS_BYTES = 8

# -- the kernel interface: declared here, generated for C and ctypes ----------

#: Stat-counter keys per counter row, in slot order.  The C enums take the
#: upper-cased keys (``SL_HITS``, ..., ``DR_BANK_CONFLICT_CYCLES``).
_SL_KEYS = (
    "hits", "misses", "fills", "evictions", "writebacks", "dram_fetches",
    "invalidations", "forwards", "remote_hits", "cc_evicted", "spills_out",
    "spills_hosted", "spills_dropped", "spills_unplaced",
    "spills_hosted_flipped", "shadow_hits", "cc_flushed",
    "taker_sets_latched", "intra_hits", "spills_intra",
)
_WB_KEYS = ("drained", "merged", "full_stalls", "stall_cycles", "deposits",
            "direct_reads")
_DR_KEYS = ("reads", "busy_cycles", "bank_conflict_cycles", "bank_conflicts")
_BU_KEYS = ("snoops", "busy_cycles", "bytes", "queue_cycles", "transfers")
_RT_KEYS = ("epochs",)

#: Slots of the ``ms`` loop-state array, the ``rs`` RNG-ring cursors, and
#: the kernel's return codes.
_MS = IntEnum("_MS", "REMAINING EVENTS RR SPILL_RR STAGE STAGE_END EPOCH "
                     "GT_READY", start=0)
_RS = IntEnum("_RS", "COIN_POS COIN_FILL PICK_POS PICK_FILL", start=0)
_RC = IntEnum("_RC", "DONE BUDGET RNG LATCH", start=0)


def _issue_gaps(core) -> np.ndarray:
    """Each record's issue delay in cycles, the spec's ``int(gap *
    base_cpi)``: the trace's ``gaps`` column itself at ``base_cpi`` 1.0
    (exact for gaps below 2**53, which a double holds), otherwise one
    scaled copy whose ``astype`` truncates as ``int()`` does."""
    if core.base_cpi == 1.0:
        return core.trace.gaps
    return (core.trace.gaps * core.base_cpi).astype(np.int64)


#: Each core's trace columns, in their order in its row of slot ``t_cols``
#: (the columns' addresses): name, where it lives, and the element type the
#: C side reads (``writes`` is NumPy ``bool``, read as bytes).
_TRACE_COLS = (
    ("addrs", lambda core: core.trace.addrs, np.int64),
    ("gaps", lambda core: core.trace.gaps, np.int64),
    ("issue_gaps", _issue_gaps, np.int64),
    ("writes", lambda core: core.trace.writes, np.bool_),
)

#: A cached line is one ``int64`` word, ``addr << META_BITS | meta``, where
#: meta packs dirty | cc << 1 | f << 2 | owner << 3 and owner < 64.  The
#: shifted address must stay a non-negative ``int64``, so the kernel
#: declines traces whose addresses reach :data:`_ADDR_LIMIT`.
_META_BITS = 9
_META_MASK = (1 << _META_BITS) - 1
_ADDR_LIMIT = 1 << (63 - _META_BITS)

#: Scalar inputs: ``int64_t`` members of ``Ctx``, read by value.  The one
#: ``double`` scalar, CC's spill probability, follows them as ``spill_p``.
_PARAMS = (
    "ncores", "kind", "warmup", "finish_at", "budget", "l1_lat", "lat_local",
    "lat_remote", "lat_snug", "dram_lat", "banked", "dbank_mask",
    "dbank_busy", "contention", "snoop_cost", "line_cost", "line_bytes",
    "imask", "assoc", "wb_cap", "wb_drain", "wb_direct", "cshift", "cmask",
    "nper", "spill_mode", "psel_max", "psel_msb", "nsets", "mon_max",
    "mon_msb", "mon_reset", "pthr", "mon_group", "flip_en", "flush_flip",
    "ident_cyc", "group_cyc", "monitored", "disjoint",
)

#: Array inputs: ``int64_t *`` members of ``Ctx``.  The one ``double *``
#: slot, CC's coin ring, follows them as ``coin_buf``.
_SLOTS = (
    "t_len", "t_cols",
    "c_time", "c_pos", "c_instr", "c_wraps", "c_acc", "c_warm", "c_fin",
    "keys", "line_addr", "occ", "hcnt",
    "wb_addr", "wb_time", "wb_head", "wb_len", "wb_next",
    "slcnt", "slstamp", "wcnt", "wstamp", "dcnt", "dstamp",
    "bcnt", "bstamp", "rcnt", "rstamp", "stamp",
    "bank_free", "bus_busy", "out_c", "w_out", "w_lat", "ms",
    "set_role", "psel", "gt", "gt_in", "sh_addr", "sh_len", "mon_val",
    "mon_mod", "pick_buf", "rs", "peers",
)
_ALL_SLOTS = (*_SLOTS, "coin_buf")


def _c_interface() -> str:
    """The C enums and the ``Ctx`` struct, generated from the tables above."""
    enums = (("SL", _SL_KEYS), ("WB", _WB_KEYS), ("DR", _DR_KEYS),
             ("BU", _BU_KEYS), ("RT", _RT_KEYS), ("MS", _MS.__members__),
             ("RS", _RS.__members__), ("RC", _RC.__members__),
             ("TC", [name for name, _, _ in _TRACE_COLS]))
    lines = [
        "enum { %s, N%s };" % (
            ", ".join(f"{prefix}_{name.upper()}" for name in names), prefix)
        for prefix, names in enums
    ]
    lines.append("enum { META_BITS = %d, META_MASK = %d };"
                 % (_META_BITS, _META_MASK))
    lines.append("typedef struct {")
    lines += [f"    i64 {name};" for name in _PARAMS]
    lines.append("    double spill_p;")
    lines += [f"    i64 *{name};" for name in _SLOTS]
    lines.append("    double *coin_buf;")
    lines.append("} Ctx;")
    return "\n".join(lines) + "\n"


class _Ctx(ctypes.Structure):
    """The kernel's input, laid out as the generated C ``Ctx``."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in _PARAMS]
        + [("spill_p", ctypes.c_double)]
        + [(name, ctypes.c_void_p) for name in _ALL_SLOTS]
    )


#: Ring-buffer capacity for prefetched CC random draws.
_RNG_CAP = 4096

#: Most addresses handed to a SNUG demand monitor in one call, so the chunk
#: its profiler steps stays bounded however long a stage runs.
_MONITOR_SLICE = 8192

_C_SOURCE = r"""
/* Structure-of-arrays event loop for the repro compiled simulation core.
 *
 * One translation unit, four exported functions:
 *     int64_t run_kernel(const Ctx *in);
 *     void profile_feed(...);   (the streaming profiler's step, at the end)
 *     void trace_fill(...);     (the trace generator's step, after it)
 *     uint32_t crc32c(...);     (the result store's checksum, last)
 * Without this library, CmpSystem.run, the profiler's Python step, the
 * generator's NumPy step (workloads/synthetic.py) and the store's Python
 * checksum walk (engine/store/format.py) do their work.
 * The enums and the Ctx struct below are generated from the Python tables
 * in _ckernel.py, which fill Ctx: scalar inputs by value, array inputs as
 * pointers.  `kind` selects the scheme: 0 l2p, 1 l2s, 2 cc, 3 dsr, 4 snug,
 * 5 snug_intra (its index in compiled._KERNEL_SCHEMES); kind 5 is kind 4
 * plus the local flipped-set retrieval and spill.  All semantics transcribe
 * the executable spec (CmpSystem.run in core/cmp.py over its TraceCores,
 * plus each scheme's access()) term for term, stat-counter first-touch
 * order included (the stamp arrays record the global first-touch tick of
 * each counter slot; the Python merge replays them in stamp order).
 *
 * A cached line is one packed word in line_addr: addr << META_BITS | meta,
 * meta = dirty | cc << 1 | f << 2 | owner << 3 (owner < 64).  The set
 * helpers compare w & ~META_MASK with the probed address shifted the same
 * way (ka below); the wrapper declines traces whose addresses would not
 * fit.  The trace columns are read in place: row c of t_cols holds the
 * addresses of core c's columns (TC_*), t_len[c] its length; its
 * TC_ISSUE_GAPS column is its TC_GAPS column at base_cpi 1.0.
 *
 * While run_kernel runs, the loop state sits in its locals: each core's
 * cursor, instruction and access counts, issue key, warm-up, finish and
 * completion times and next trace record, and the event and remaining
 * counts.  They are loaded from the arrays on entry and written back on
 * every exit, so the kernel can return to Python mid-run and resume.
 *
 * Per access, the loop steps the core with the smallest key.  Its next
 * record (address, write flag) was loaded when the core last stepped, when
 * its set row was also prefetched.  The requester's own set is walked once
 * (lookup): a hit moves the line to MRU in that pass; a miss shifts the set
 * one way toward LRU and hands the LRU line it pushed out to the demand
 * fill (fill_dispose, place).  hcnt counts each set's resident hosted (CC)
 * lines, so a peer probe into a set hosting none is skipped: always for the
 * SNUG family, whose probes accept only hosted lines (hosted_way), and for
 * CC/DSR, whose probes accept any line, only when `disjoint` says no two
 * cores' traces share an address.
 */
#include <stdint.h>

typedef int64_t i64;

/* The per-access helpers are inlined into the loop. */
#define HOT static inline __attribute__((always_inline))

""" + _c_interface() + r"""
/* Bump counter slot `idx` of (cnt, stp) by v, stamping on first touch. */
#define BUMP(cnt, stp, idx, v) do { \
        if ((stp)[idx] < 0) (stp)[idx] = (*C->stamp)++; \
        (cnt)[idx] += (v); \
    } while (0)

/* A packed line word's owner field. */
#define OWNER(w) (((w) & META_MASK) >> 3)

/* One bus operation at `now`: an address snoop (BU_SNOOPS, snoop_cost,
 * 8 bytes) or a line transfer (BU_TRANSFERS, line_cost, line_bytes).
 * Returns its queueing delay when contention is modelled, else 0. */
HOT i64 bus_op(Ctx *C, i64 now, int counter, i64 cost, i64 bytes) {
    BUMP(C->bcnt, C->bstamp, counter, 1);
    BUMP(C->bcnt, C->bstamp, BU_BUSY_CYCLES, cost);
    BUMP(C->bcnt, C->bstamp, BU_BYTES, bytes);
    if (!C->contention) return 0;
    i64 bu = *C->bus_busy;
    i64 start = bu > now ? bu : now;
    i64 delay = start - now;
    *C->bus_busy = start + cost;
    if (delay) BUMP(C->bcnt, C->bstamp, BU_QUEUE_CYCLES, delay);
    return delay;
}
#define SNOOP(now) bus_op(C, now, BU_SNOOPS, C->snoop_cost, 8)
#define TRANSFER(now) bus_op(C, now, BU_TRANSFERS, C->line_cost, C->line_bytes)

HOT i64 mem_fetch(Ctx *C, i64 addr, i64 now) {
    BUMP(C->dcnt, C->dstamp, DR_READS, 1);
    i64 latency = C->dram_lat;
    if (C->banked) {
        i64 bank = addr & C->dbank_mask;
        i64 freeat = C->bank_free[bank];
        i64 start = freeat > now ? freeat : now;
        i64 qd = start - now;
        C->bank_free[bank] = start + C->dbank_busy;
        if (qd) {
            BUMP(C->dcnt, C->dstamp, DR_BANK_CONFLICT_CYCLES, qd);
            BUMP(C->dcnt, C->dstamp, DR_BANK_CONFLICTS, 1);
            latency += qd;
        }
    }
    BUMP(C->dcnt, C->dstamp, DR_BUSY_CYCLES, latency);
    return latency;
}

static i64 wb_deposit(Ctx *C, i64 c, i64 baddr, i64 now) {
    i64 cap = C->wb_cap;
    i64 *wa = C->wb_addr + c * cap;
    i64 *wt = C->wb_time + c * cap;
    i64 head = C->wb_head[c], len = C->wb_len[c], nd = C->wb_next[c];
    i64 *wc = C->wcnt + c * NWB, *ws = C->wstamp + c * NWB;
    while (len && nd <= now) {
        head = (head + 1) % cap; len--;
        BUMP(wc, ws, WB_DRAINED, 1);
        nd += C->wb_drain;
    }
    for (i64 j = 0; j < len; j++) {          /* merge keeps the slot */
        i64 idx = (head + j) % cap;
        if (wa[idx] == baddr) {
            wt[idx] = now;
            BUMP(wc, ws, WB_MERGED, 1);
            C->wb_head[c] = head; C->wb_len[c] = len; C->wb_next[c] = nd;
            return 0;
        }
    }
    i64 stall = 0;
    if (len >= cap) {
        i64 wait = nd > now ? nd : now;
        stall = wait - now;
        head = (head + 1) % cap; len--;
        BUMP(wc, ws, WB_DRAINED, 1);
        BUMP(wc, ws, WB_FULL_STALLS, 1);
        BUMP(wc, ws, WB_STALL_CYCLES, stall);
        nd = wait + C->wb_drain;
    } else if (!len) {
        nd = now + C->wb_drain;
    }
    i64 tail = (head + len) % cap;
    wa[tail] = baddr; wt[tail] = now; len++;
    BUMP(wc, ws, WB_DEPOSITS, 1);
    C->wb_head[c] = head; C->wb_len[c] = len; C->wb_next[c] = nd;
    return stall;
}

/* Write-buffer read-hit probe on the miss path (direct_read gate first). */
HOT int wb_try_read(Ctx *C, i64 c, i64 baddr, i64 now) {
    i64 cap = C->wb_cap;
    i64 head = C->wb_head[c], len = C->wb_len[c];
    if (!len || !C->wb_direct) return 0;
    i64 *wa = C->wb_addr + c * cap;
    i64 *wt = C->wb_time + c * cap;
    i64 *wc = C->wcnt + c * NWB, *ws = C->wstamp + c * NWB;
    i64 nd = C->wb_next[c];
    if (nd <= now) {
        while (len && nd <= now) {
            head = (head + 1) % cap; len--;
            BUMP(wc, ws, WB_DRAINED, 1);
            nd += C->wb_drain;
        }
        C->wb_head[c] = head; C->wb_len[c] = len; C->wb_next[c] = nd;
    }
    for (i64 j = 0; j < len; j++) {
        i64 idx = (head + j) % cap;
        if (wa[idx] == baddr) {
            for (i64 k = j; k < len - 1; k++) {   /* delete, order kept */
                i64 a = (head + k) % cap, b = (head + k + 1) % cap;
                wa[a] = wa[b]; wt[a] = wt[b];
            }
            C->wb_len[c] = len - 1;
            BUMP(wc, ws, WB_DIRECT_READS, 1);
            return 1;
        }
    }
    return 0;
}

/* Peer probe: the way of c's set holding the line whose shifted address is
 * ka, or -1 (no recency update). */
HOT i64 find_way(Ctx *C, i64 c, i64 set, i64 ka) {
    i64 idx = c * C->nsets + set;
    i64 *la = C->line_addr + idx * C->assoc;
    i64 occ = C->occ[idx];
    for (i64 j = 0; j < occ; j++) if ((la[j] & ~META_MASK) == ka) return j;
    return -1;
}

/* The way holding ka as a hosted (CC) line in c's set, or -1.  A set that
 * hosts no line is not walked. */
HOT i64 hosted_way(Ctx *C, i64 c, i64 set, i64 ka) {
    if (!C->hcnt[c * C->nsets + set]) return -1;
    i64 w = find_way(C, c, set, ka);
    if (w >= 0 && !(C->line_addr[(c * C->nsets + set) * C->assoc + w] & 2))
        return -1;
    return w;
}

/* The requester's set row idx (core * nsets + set) after a lookup and, on
 * a miss, the pending demand fill: way 0 of that row is free, and when the
 * set was full (ev) the lookup pushed out its LRU line, word vw. */
typedef struct { i64 idx; int ev; i64 vw; } Miss;

/* The requester's own set, walked once for shifted address ka.  A hit
 * moves the line to way 0 (MRU) in the same pass and returns 1.  A miss
 * shifts every line one way toward LRU, freeing way 0 for the demand fill
 * (place), and returns 0 with *m describing that fill.  Nothing reads row
 * idx between the miss and its fill: every probe in between is of another
 * row. */
HOT int lookup(Ctx *C, i64 idx, i64 ka, Miss *m) {
    i64 *la = C->line_addr + idx * C->assoc;
    i64 occ = C->occ[idx];
    i64 cw = 0;
    m->idx = idx;
    if (occ) {
        cw = la[0];
        if ((cw & ~META_MASK) == ka) return 1;
        for (i64 j = 1; j < occ; j++) {
            i64 w = la[j];
            la[j] = cw;
            if ((w & ~META_MASK) == ka) { la[0] = w; return 1; }
            cw = w;
        }
    }
    m->ev = occ >= C->assoc;
    m->vw = cw;
    if (occ && !m->ev) la[occ] = cw;
    return 0;
}

/* Shift row idx one way toward LRU, freeing way 0.  Returns 1 when the set
 * was full: the LRU line it pushed out goes to *vw. */
static int shift_lru(Ctx *C, i64 idx, i64 *vw) {
    i64 *la = C->line_addr + idx * C->assoc;
    i64 occ = C->occ[idx];
    int ev = occ >= C->assoc;
    if (ev) { occ--; *vw = la[occ]; }
    for (i64 j = occ; j > 0; j--) la[j] = la[j - 1];
    return ev;
}

/* Place line word w in way 0 of row idx, freed by lookup or shift_lru;
 * when ev, the line pushed out (word vw) has left the set.  Keeps occ and
 * the hosted-line count hcnt, and bumps cache c's fills/evictions. */
HOT void place(Ctx *C, i64 c, i64 idx, i64 w, int ev, i64 vw) {
    C->line_addr[idx * C->assoc] = w;
    C->hcnt[idx] += (w >> 1) & 1;
    if (ev) C->hcnt[idx] -= (vw >> 1) & 1;
    else C->occ[idx]++;
    i64 *sc = C->slcnt + c * NSL, *ss = C->slstamp + c * NSL;
    BUMP(sc, ss, SL_FILLS, 1);
    if (ev) BUMP(sc, ss, SL_EVICTIONS, 1);
}

static void remove_way(Ctx *C, i64 c, i64 set, i64 way) {
    i64 idx = c * C->nsets + set;
    i64 *la = C->line_addr + idx * C->assoc;
    i64 occ = C->occ[idx];
    C->hcnt[idx] -= (la[way] >> 1) & 1;
    for (i64 j = way; j < occ - 1; j++) la[j] = la[j + 1];
    C->occ[idx] = occ - 1;
}

/* ShadowSet.record_eviction: refresh if present, else insert at MRU
 * (evicting the shadow LRU when full). */
static void shadow_record(Ctx *C, i64 c, i64 set, i64 addr) {
    i64 idx = c * C->nsets + set;
    i64 *ta = C->sh_addr + idx * C->assoc;
    i64 len = C->sh_len[idx];
    for (i64 j = 0; j < len; j++) {
        if (ta[j] == addr) {
            for (i64 k = j; k > 0; k--) ta[k] = ta[k - 1];
            ta[0] = addr;
            return;
        }
    }
    if (len >= C->assoc) len--;
    for (i64 j = len; j > 0; j--) ta[j] = ta[j - 1];
    ta[0] = addr;
    C->sh_len[idx] = len + 1;
}

/* ShadowSet.hit_and_invalidate: remove-if-present, reporting the hit. */
static int shadow_hit(Ctx *C, i64 c, i64 set, i64 addr) {
    i64 idx = c * C->nsets + set;
    i64 *ta = C->sh_addr + idx * C->assoc;
    i64 len = C->sh_len[idx];
    for (i64 j = 0; j < len; j++) {
        if (ta[j] == addr) {
            for (i64 k = j; k < len - 1; k++) ta[k] = ta[k + 1];
            C->sh_len[idx] = len - 1;
            return 1;
        }
    }
    return 0;
}

/* Insert line word w at MRU of another set than the requester's (a
 * spill); returns 1 when a victim was evicted (its word to *vw). */
static int do_fill(Ctx *C, i64 c, i64 set, i64 w, i64 *vw) {
    i64 idx = c * C->nsets + set;
    int evicted = shift_lru(C, idx, vw);
    place(C, c, idx, w, evicted, *vw);
    return evicted;
}
"""

_C_SOURCE += r"""
/* CC's and DSR's spill once the host is chosen: the victim (vaddr, owned
 * by vowner) of owner's set goes over the bus (snoop, then transfer) to
 * MRU of host's set of the same index, and a line that pushes out of there
 * is disposed of without cascading. */
static void host_spill(Ctx *C, i64 owner, i64 host, i64 vaddr, i64 vowner,
                       i64 now) {
    SNOOP(now);
    TRANSFER(now);
    i64 hw = 0;
    int ev = do_fill(C, host, vaddr & C->imask,
                     (vaddr << META_BITS) | 2 | (vowner << 3), &hw);
    i64 *hc = C->slcnt + host * NSL, *hs = C->slstamp + host * NSL;
    i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
    BUMP(oc, os, SL_SPILLS_OUT, 1);
    BUMP(hc, hs, SL_SPILLS_HOSTED, 1);
    if (ev) {
        if (hw & 2) BUMP(hc, hs, SL_CC_EVICTED, 1);
        else if (hw & 1) {
            BUMP(hc, hs, SL_WRITEBACKS, 1);
            wb_deposit(C, host, hw >> META_BITS, now);
        }
    }
}

/* CC: the host is a random peer, drawn from the pick ring. */
static void cc_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner, i64 now) {
    i64 *pl = C->peers + owner * C->nper;
    host_spill(C, owner, pl[C->pick_buf[C->rs[RS_PICK_POS]++]], vaddr,
               vowner, now);
}

/* DSR: the host is the next receiver peer in round-robin order; with no
 * receiver the spill is dropped. */
static void dsr_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner, i64 now) {
    i64 recv[64];
    i64 nr = 0;
    i64 *pl = C->peers + owner * C->nper;
    for (i64 j = 0; j < C->nper; j++) {
        i64 p = pl[j];
        if (!((C->psel[p] >> C->psel_msb) & 1)) recv[nr++] = p;
    }
    i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
    if (!nr) { BUMP(oc, os, SL_SPILLS_DROPPED, 1); return; }
    i64 host = recv[C->ms[MS_RR] % nr];
    C->ms[MS_RR]++;
    host_spill(C, owner, host, vaddr, vowner, now);
}

/* SnugCache._dispose_host_victim: a victim (word hw) displaced by hosting
 * a spill into host's set hidx never cascades another spill. */
static void dispose_host_victim(Ctx *C, i64 host, i64 hidx, i64 hw, i64 now) {
    i64 *hc = C->slcnt + host * NSL, *hs = C->slstamp + host * NSL;
    i64 hva = hw >> META_BITS;
    if (hw & 2) BUMP(hc, hs, SL_CC_EVICTED, 1);
    else if (hw & 1) {
        BUMP(hc, hs, SL_WRITEBACKS, 1);
        wb_deposit(C, host, hva, now);
    } else if ((hva & C->imask) == hidx) {
        shadow_record(C, host, hidx, hva);
    }
}

static void snug_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner, i64 si,
                       i64 now) {
    SNOOP(now);
    i64 flipped = si ^ 1;
    i64 *pl = C->peers + owner * C->nper;
    C->ms[MS_SPILL_RR]++;
    i64 start = C->ms[MS_SPILL_RR] % C->nper;
    i64 cand_peer = -1, cand_idx = -1, cand_f = 0;
    for (i64 j = 0; j < C->nper; j++) {
        i64 peer = pl[(start + j) % C->nper];
        i64 *gt = C->gt + peer * C->nsets;
        if (!gt[si]) { cand_peer = peer; cand_idx = si; cand_f = 0; break; }
        if (C->flip_en && !gt[flipped] && cand_peer < 0) {
            cand_peer = peer; cand_idx = flipped; cand_f = 1;
        }
    }
    i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
    if (cand_peer < 0) { BUMP(oc, os, SL_SPILLS_UNPLACED, 1); return; }
    TRANSFER(now);
    i64 hw = 0;
    i64 w = (vaddr << META_BITS) | 2 | (cand_f ? 4 : 0) | (vowner << 3);
    int ev = do_fill(C, cand_peer, cand_idx, w, &hw);
    i64 *pc = C->slcnt + cand_peer * NSL, *ps = C->slstamp + cand_peer * NSL;
    BUMP(oc, os, SL_SPILLS_OUT, 1);
    BUMP(pc, ps, SL_SPILLS_HOSTED, 1);
    if (cand_f) BUMP(pc, ps, SL_SPILLS_HOSTED_FLIPPED, 1);
    if (ev) dispose_host_victim(C, cand_peer, cand_idx, hw, now);
}

/* SnugIntraCache._spill: the owner's own flipped giver set first (a CC|f
 * line the owner keeps, no bus traffic), else the inter-cache spill. */
static void snug_intra_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner,
                             i64 si, i64 now) {
    i64 flipped = si ^ 1;
    if (C->flip_en && !C->gt[owner * C->nsets + flipped]) {
        i64 hw = 0;
        int ev = do_fill(C, owner, flipped,
                         (vaddr << META_BITS) | 2 | 4 | (owner << 3), &hw);
        i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
        BUMP(oc, os, SL_SPILLS_INTRA, 1);
        if (ev) dispose_host_victim(C, owner, flipped, hw, now);
        return;
    }
    snug_spill(C, owner, vaddr, vowner, si, now);
}

/* SnugCache._retrieve: the first peer holding a hosted (CC) copy of the
 * line ka in a giver set at si or, with flipping, si ^ 1 (G/T-gated: taker
 * sets are never probed), or -1.  The copy's set and way go to *fidx,
 * *fway. */
static i64 snug_retrieve(Ctx *C, i64 cid, i64 si, i64 ka, i64 *fidx,
                         i64 *fway) {
    i64 flipped = si ^ 1;
    i64 *pl = C->peers + cid * C->nper;
    for (i64 j = 0; j < C->nper; j++) {
        i64 peer = pl[j];
        i64 *gt = C->gt + peer * C->nsets;
        if (!gt[si]) {
            i64 w = hosted_way(C, peer, si, ka);
            if (w >= 0) { *fidx = si; *fway = w; return peer; }
        }
        if (C->flip_en && !gt[flipped]) {
            i64 w = hosted_way(C, peer, flipped, ka);
            if (w >= 0) { *fidx = flipped; *fway = w; return peer; }
        }
    }
    return -1;
}

/* SNUG IDENTIFY->GROUP latch.  Each set's new G/T bit comes from the
 * per-set demand counter's MSB, or from the gt_in array the wrapper filled
 * from the attached monitor's latch(). */
static void latch_gt(Ctx *C) {
    for (i64 c = 0; c < C->ncores; c++) {
        i64 *gt = C->gt + c * C->nsets;
        i64 *mv = C->mon_val + c * C->nsets;
        i64 *mm = C->mon_mod + c * C->nsets;
        i64 *sc = C->slcnt + c * NSL, *ss = C->slstamp + c * NSL;
        i64 takers = 0;
        for (i64 s = 0; s < C->nsets; s++) {
            i64 nt = C->monitored ? C->gt_in[c * C->nsets + s]
                                  : (mv[s] >> C->mon_msb) & 1;
            if (nt && !gt[s] && C->flush_flip) {
                i64 idx = c * C->nsets + s;
                i64 *la = C->line_addr + idx * C->assoc;
                i64 occ = C->occ[idx];
                i64 w = 0;
                for (i64 j = 0; j < occ; j++) {
                    if (la[j] & 2) BUMP(sc, ss, SL_CC_FLUSHED, 1);
                    else la[w++] = la[j];
                }
                C->occ[idx] = w;
                C->hcnt[idx] = 0;
            }
            gt[s] = nt;
            takers += nt;
            mv[s] = C->mon_reset;
            mm[s] = 0;
        }
        BUMP(sc, ss, SL_TAKER_SETS_LATCHED, takers);
    }
}

/* Apply the stage transitions `now` has crossed.  Returns 1 when a
 * monitored latch needs the wrapper's G/T bits first (state is left at
 * that latch, so re-entry resumes there); 0 when all were applied. */
static int advance_stage(Ctx *C, i64 now) {
    i64 se = C->ms[MS_STAGE_END];
    while (now >= se) {
        if (C->ms[MS_STAGE] == 0) {
            if (C->monitored) {
                if (!C->ms[MS_GT_READY]) return 1;
                C->ms[MS_GT_READY] = 0;
            }
            latch_gt(C);
            C->ms[MS_STAGE] = 1;
            se += C->group_cyc;
        } else {
            C->ms[MS_STAGE] = 0;
            C->ms[MS_EPOCH]++;
            se += C->ident_cyc;
            BUMP(C->rcnt, C->rstamp, RT_EPOCHS, 1);
        }
        C->ms[MS_STAGE_END] = se;
    }
    return 0;
}

/* Demand fill of the line ka (address << META_BITS) into way 0 of the row
 * the missed lookup *m freed in cid's slice/bank + scheme-specific victim
 * disposal.  The line's owner is the requesting core: cid itself for a
 * private slice, the requester for an l2s bank.  dirty is 0 or 1.  Returns
 * the write-buffer stall, if any. */
static i64 fill_dispose(Ctx *C, i64 cid, i64 owner, const Miss *m, i64 ka,
                        i64 dirty, i64 now) {
    place(C, cid, m->idx, ka | dirty | (owner << 3), m->ev, m->vw);
    if (!m->ev) return 0;
    i64 vw = m->vw, va = vw >> META_BITS;
    i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
    if (C->kind == 1) {
        if (vw & 1) {
            BUMP(sc, ss, SL_WRITEBACKS, 1);
            return wb_deposit(C, cid, va, now);
        }
        return 0;
    }
    if (vw & 2) { BUMP(sc, ss, SL_CC_EVICTED, 1); return 0; }
    if (vw & 1) {
        BUMP(sc, ss, SL_WRITEBACKS, 1);
        return wb_deposit(C, cid, va, now);
    }
    if (C->kind == 2) {
        if (C->spill_mode == 1 ||
            (C->spill_mode == 2 &&
             C->coin_buf[C->rs[RS_COIN_POS]++] < C->spill_p))
            cc_spill(C, cid, va, OWNER(vw), now);
    } else if (C->kind == 3) {
        i64 vsi = va & C->imask;
        i64 role = C->set_role[vsi];
        int spills;
        if (role == 1) spills = 1;
        else if (role == 2) spills = 0;
        else spills = (C->psel[cid] >> C->psel_msb) != 0;
        if (spills) dsr_spill(C, cid, va, OWNER(vw), now);
    } else if (C->kind == 4 || C->kind == 5) {
        i64 vsi = va & C->imask;
        shadow_record(C, cid, vsi, va);
        if (C->ms[MS_STAGE] == 1 && C->gt[cid * C->nsets + vsi]) {
            if (C->kind == 5)
                snug_intra_spill(C, cid, va, OWNER(vw), vsi, now);
            else
                snug_spill(C, cid, va, OWNER(vw), vsi, now);
        }
    }
    return 0;
}

i64 run_kernel(const Ctx *in) {
    Ctx ctx = *in;  /* a local copy: no store through a state array aliases it */
    Ctx *C = &ctx;

    i64 ncores = C->ncores, kind = C->kind;
    i64 budget = C->budget, finish_at = C->finish_at, warmup = C->warmup;
    i64 nsets = C->nsets, imask = C->imask, cshift = C->cshift;

    /* The loop state in locals (see the header), one entry per core: at
     * most 64. */
    const i64 *t_addr[64], *t_gap[64], *t_igap[64];
    const uint8_t *t_write[64];
    i64 t_len[64], c_pos[64], c_instr[64], c_acc[64], keys[64];
    i64 c_warm[64], c_fin[64], c_time[64], nx_addr[64], nx_write[64];
    for (i64 i = 0; i < ncores; i++) {
        const i64 *cols = C->t_cols + i * NTC;
        t_addr[i] = (const i64 *)(intptr_t)cols[TC_ADDRS];
        t_gap[i] = (const i64 *)(intptr_t)cols[TC_GAPS];
        t_igap[i] = (const i64 *)(intptr_t)cols[TC_ISSUE_GAPS];
        t_write[i] = (const uint8_t *)(intptr_t)cols[TC_WRITES];
        t_len[i] = C->t_len[i];
        c_pos[i] = C->c_pos[i];
        c_instr[i] = C->c_instr[i];
        c_acc[i] = C->c_acc[i];
        keys[i] = C->keys[i];
        c_warm[i] = C->c_warm[i];
        c_fin[i] = C->c_fin[i];
        c_time[i] = C->c_time[i];
        nx_addr[i] = t_addr[i][c_pos[i]];
        nx_write[i] = t_write[i][c_pos[i]];
    }
    i64 events = C->ms[MS_EVENTS], remaining = C->ms[MS_REMAINING];
    i64 rc = RC_DONE;

    while (remaining) {
        if (kind == 2 && C->spill_mode) {
            if (C->rs[RS_PICK_POS] >= C->rs[RS_PICK_FILL] ||
                (C->spill_mode == 2 &&
                 C->rs[RS_COIN_POS] >= C->rs[RS_COIN_FILL])) {
                rc = RC_RNG;
                break;
            }
        }
        if (++events > budget) { rc = RC_BUDGET; break; }
        i64 k = keys[0];
        for (i64 i = 1; i < ncores; i++) if (keys[i] < k) k = keys[i];
        i64 cid = k & C->cmask;
        i64 issue = k >> cshift;
        int was_done = c_fin[cid] >= 0;
        int warmed = c_warm[cid] >= 0;
        i64 addr = nx_addr[cid];
        i64 is_write = nx_write[cid];
        i64 ka = addr << META_BITS;
        i64 latency = 0, okey = 0, stall;
        Miss m;

        if (kind == 0) {                       /* ---- l2p ---- */
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            if (lookup(C, cid * nsets + (addr & imask), ka, &m)) {
                BUMP(sc, ss, SL_HITS, 1);
                C->line_addr[m.idx * C->assoc] |= is_write;
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, cid, &m, ka, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    latency = mem_fetch(C, addr, issue);
                    stall = fill_dispose(C, cid, cid, &m, ka, is_write,
                                         issue);
                    BUMP(sc, ss, SL_DRAM_FETCHES, 1);
                    latency += stall; okey = 3;
                }
            }
        } else if (kind == 1) {                /* ---- l2s ---- */
            i64 bank = addr & C->cmask;
            i64 la = addr >> cshift, lka = la << META_BITS;
            i64 base, rokey;
            if (bank == cid) { base = C->lat_local; rokey = 0; }
            else { base = C->lat_remote; rokey = 2; SNOOP(issue); }
            i64 *sc = C->slcnt + bank * NSL, *ss = C->slstamp + bank * NSL;
            if (lookup(C, bank * nsets + (la & imask), lka, &m)) {
                BUMP(sc, ss, SL_HITS, 1);
                C->line_addr[m.idx * C->assoc] |= is_write;
                latency = base; okey = rokey;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, bank, la, issue)) {
                    stall = fill_dispose(C, bank, cid, &m, lka, 1, issue);
                    latency = base + stall; okey = 1;
                } else {
                    i64 lat = mem_fetch(C, addr, issue);
                    stall = fill_dispose(C, bank, cid, &m, lka, is_write,
                                         issue);
                    BUMP(sc, ss, SL_DRAM_FETCHES, 1);
                    latency = base + lat + stall; okey = 3;
                }
            }
        } else if (kind == 4 || kind == 5) {   /* ---- snug, snug_intra ---- */
            if (issue >= C->ms[MS_STAGE_END] && advance_stage(C, issue)) {
                events--;   /* re-counted when the access resumes */
                rc = RC_LATCH;
                break;
            }
            i64 si = addr & imask;
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            i64 midx = cid * nsets + si;
            if (lookup(C, midx, ka, &m)) {
                BUMP(sc, ss, SL_HITS, 1);
                C->line_addr[midx * C->assoc] |= is_write;
                if (C->ms[MS_STAGE] == 0 || C->mon_group) {
                    i64 mo = C->mon_mod[midx] + 1;
                    if (mo == C->pthr) {
                        C->mon_mod[midx] = 0;
                        if (C->mon_val[midx] > 0) C->mon_val[midx]--;
                    } else C->mon_mod[midx] = mo;
                }
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, cid, &m, ka, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    if (shadow_hit(C, cid, si, addr)) {
                        BUMP(sc, ss, SL_SHADOW_HITS, 1);
                        if (C->ms[MS_STAGE] == 0 || C->mon_group) {
                            if (C->mon_val[midx] < C->mon_max)
                                C->mon_val[midx]++;
                            i64 mo = C->mon_mod[midx] + 1;
                            if (mo == C->pthr) {
                                C->mon_mod[midx] = 0;
                                if (C->mon_val[midx] > 0) C->mon_val[midx]--;
                            } else C->mon_mod[midx] = mo;
                        }
                    }
                    /* SnugIntraCache: a hosted copy in the core's own
                     * flipped giver set is a local hit. */
                    i64 iway = kind == 5 && C->flip_en &&
                               !C->gt[cid * nsets + (si ^ 1)]
                        ? hosted_way(C, cid, si ^ 1, ka) : -1;
                    if (iway >= 0) {
                        remove_way(C, cid, si ^ 1, iway);
                        BUMP(sc, ss, SL_INVALIDATIONS, 1);
                        stall = fill_dispose(C, cid, cid, &m, ka, is_write,
                                             issue);
                        BUMP(sc, ss, SL_INTRA_HITS, 1);
                        latency = C->lat_local + stall; okey = 0;
                    } else {
                        SNOOP(issue);
                        i64 fidx = -1, fway = -1;
                        i64 fpeer = snug_retrieve(C, cid, si, ka, &fidx,
                                                  &fway);
                        if (fpeer >= 0) {
                            remove_way(C, fpeer, fidx, fway);
                            i64 *pc = C->slcnt + fpeer * NSL;
                            i64 *ps = C->slstamp + fpeer * NSL;
                            BUMP(pc, ps, SL_INVALIDATIONS, 1);
                            BUMP(pc, ps, SL_FORWARDS, 1);
                            i64 delay = TRANSFER(issue);
                            stall = fill_dispose(C, cid, cid, &m, ka,
                                                 is_write, issue);
                            BUMP(sc, ss, SL_REMOTE_HITS, 1);
                            latency = C->lat_snug + delay + stall; okey = 2;
                        } else {
                            latency = mem_fetch(C, addr, issue);
                            stall = fill_dispose(C, cid, cid, &m, ka,
                                                 is_write, issue);
                            BUMP(sc, ss, SL_DRAM_FETCHES, 1);
                            latency += stall; okey = 3;
                        }
                    }
                }
            }
        } else {                               /* ---- cc / dsr ---- */
            i64 set = addr & imask;
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            if (lookup(C, cid * nsets + set, ka, &m)) {
                BUMP(sc, ss, SL_HITS, 1);
                C->line_addr[m.idx * C->assoc] |= is_write;
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, cid, &m, ka, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    SNOOP(issue);
                    /* Any line of a peer's set answers the probe.  With
                     * disjoint traces a peer's own lines never hold addr,
                     * so a set hosting no line cannot answer. */
                    i64 fpeer = -1, fway = -1;
                    i64 *pl = C->peers + cid * C->nper;
                    for (i64 j = 0; j < C->nper; j++) {
                        i64 p = pl[j];
                        if (C->disjoint && !C->hcnt[p * nsets + set]) continue;
                        i64 w = find_way(C, p, set, ka);
                        if (w >= 0) { fpeer = p; fway = w; break; }
                    }
                    if (fpeer >= 0) {
                        remove_way(C, fpeer, set, fway);
                        i64 *pc = C->slcnt + fpeer * NSL;
                        i64 *ps = C->slstamp + fpeer * NSL;
                        BUMP(pc, ps, SL_INVALIDATIONS, 1);
                        BUMP(pc, ps, SL_FORWARDS, 1);
                        i64 delay = TRANSFER(issue);
                        stall = fill_dispose(C, cid, cid, &m, ka, is_write,
                                             issue);
                        BUMP(sc, ss, SL_REMOTE_HITS, 1);
                        latency = C->lat_remote + delay + stall; okey = 2;
                    } else {
                        if (kind == 3) {
                            i64 role = C->set_role[set];
                            if (role == 1) {
                                if (C->psel[cid] > 0) C->psel[cid]--;
                            } else if (role == 2) {
                                if (C->psel[cid] < C->psel_max) C->psel[cid]++;
                            }
                        }
                        latency = mem_fetch(C, addr, issue);
                        stall = fill_dispose(C, cid, cid, &m, ka, is_write,
                                             issue);
                        BUMP(sc, ss, SL_DRAM_FETCHES, 1);
                        latency += stall; okey = 3;
                    }
                }
            }
        }

        /* shared epilogue: trace stepping, windows, finish bookkeeping */
        i64 pos = c_pos[cid];
        c_instr[cid] += t_gap[cid][pos];
        c_acc[cid]++;
        if (++pos >= t_len[cid]) { pos = 0; C->c_wraps[cid]++; }
        c_pos[cid] = pos;
        C->out_c[okey]++;
        if (warmed && !was_done) {
            C->w_out[cid * 4 + okey]++;
            C->w_lat[cid] += latency;
        }
        i64 now2 = issue + C->l1_lat + latency;
        c_time[cid] = now2;
        if (!warmed && c_instr[cid] >= warmup) c_warm[cid] = now2;
        if (!was_done && c_warm[cid] >= 0 && c_instr[cid] >= finish_at) {
            c_fin[cid] = now2;
            remaining--;
        }
        i64 na = nx_addr[cid] = t_addr[cid][pos];
        nx_write[cid] = t_write[cid][pos];
        i64 row = kind == 1
            ? (na & C->cmask) * nsets + ((na >> cshift) & imask)
            : cid * nsets + (na & imask);
        __builtin_prefetch(C->line_addr + row * C->assoc);
        __builtin_prefetch(C->occ + row);
        keys[cid] = ((now2 + t_igap[cid][pos]) << cshift) | cid;
    }

    for (i64 i = 0; i < ncores; i++) {
        C->c_pos[i] = c_pos[i];
        C->c_instr[i] = c_instr[i];
        C->c_acc[i] = c_acc[i];
        C->keys[i] = keys[i];
        C->c_warm[i] = c_warm[i];
        C->c_fin[i] = c_fin[i];
        C->c_time[i] = c_time[i];
    }
    C->ms[MS_EVENTS] = events;
    C->ms[MS_REMAINING] = remaining;
    return rc;
}

/* StreamingProfiler's step over n addresses: each set s keeps a bounded LRU
 * stack in row s of stk (depth wide, MRU first, len[s] live entries).  A
 * hit at position p bumps hist[s * depth + p]; hit or miss, the address
 * moves to the front, and a miss on a full row drops its LRU entry. */
void profile_feed(const i64 *addrs, i64 n, i64 mask, i64 depth, i64 *stk,
                  i64 *len, i64 *hist) {
    for (i64 i = 0; i < n; i++) {
        i64 a = addrs[i], s = a & mask;
        i64 *row = stk + s * depth;
        i64 l = len[s], p = 0;
        while (p < l && row[p] != a) p++;
        if (p < l) hist[s * depth + p]++;
        else if (l < depth) len[s] = l + 1;
        else p = depth - 1;
        for (i64 j = p; j > 0; j--) row[j] = row[j - 1];
        row[0] = a;
    }
}

/* The trace generator's step over one phase's n draws: access i goes to
 * set s = sets[i], whose working set is w = wmap[s].  A kind[i] below
 * stream_cut streams (tag stream_base + the set's stream count so far), one
 * at or above cyclic_cut walks the working set (tag: the set's cyclic
 * pointer, which wraps at w), and any other draws tag (i64)(pick[i] * w).
 * out[i] = tag * num_sets + s.  cnt holds 2 * num_sets zeroed counters: the
 * sets' stream counts, then their cyclic pointers.  The wrapper has checked
 * every set against num_sets and every w against 1. */
void trace_fill(const i64 *sets, const double *kind, const double *pick,
                i64 n, const i64 *wmap, i64 num_sets, double stream_cut,
                double cyclic_cut, i64 stream_base, i64 *cnt, i64 *out) {
    i64 *streamed = cnt, *cyc = cnt + num_sets;
    for (i64 i = 0; i < n; i++) {
        i64 s = sets[i], w = wmap[s], tag;
        double k = kind[i];
        if (k < stream_cut) {
            tag = stream_base + streamed[s]++;
        } else if (k >= cyclic_cut) {
            tag = cyc[s];
            cyc[s] = tag + 1 < w ? tag + 1 : 0;
        } else {
            tag = (i64)(pick[i] * (double)w);
        }
        out[i] = tag * num_sets + s;
    }
}

/* The result store's record checksum: CRC32C (Castagnoli, reflected) over
 * n bytes, continuing from crc, one table step per byte.  The table is
 * generated from repro.common.bitops.crc32c_table. */
static const uint32_t crc32c_table[256] = {
""" + "\n".join(
    "    " + " ".join("0x%08xu," % v for v in crc32c_table()[i:i + 8])
    for i in range(0, 256, 8)) + r"""
};

uint32_t crc32c(const unsigned char *data, i64 n, uint32_t crc) {
    crc = ~crc;
    for (i64 i = 0; i < n; i++)
        crc = crc32c_table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
    return ~crc;
}
"""

# -- build & load -------------------------------------------------------------

_LIB: Optional[ctypes.CDLL] = None
_REASON: Optional[str] = None
_TRIED = False

#: Compiler flags of the kernel build (part of the cache key).
_CFLAGS = ("-O2", "-fPIC", "-shared", "-Wall", "-Wextra", "-Werror")


def _cflags() -> tuple:
    """The effective build flags: :data:`_CFLAGS`, then the extra flags in
    ``REPRO_CKERNEL_CFLAGS`` (a sanitizer build, for instance).  Later
    flags win, so ``-O1`` there overrides the default ``-O2``."""
    extra = shlex.split(os.environ.get("REPRO_CKERNEL_CFLAGS", ""))
    return (*_CFLAGS, *extra)


def _cache_root() -> str:
    return os.environ.get("REPRO_CKERNEL_DIR") or os.path.join(
        tempfile.gettempdir(),
        "repro-ckernel-%d" % getattr(os, "getuid", lambda: 0)(),
    )


def _so_path(root: str, cc: str) -> str:
    """Cached library path, keyed on source + effective flags + resolved
    compiler, so a build with other flags or another toolchain never
    collides."""
    key = "\0".join((_C_SOURCE, " ".join(_cflags()), os.path.realpath(cc)))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(root, f"repro_ckernel_{digest}.so")


def _build(cc: str) -> ctypes.CDLL:
    root = _cache_root()
    os.makedirs(root, exist_ok=True)
    so_path = _so_path(root, cc)
    if not os.path.exists(so_path):
        # Source and output are private to this builder: a concurrent first
        # build of the same revision writes its own files, never ours, and
        # the atomic rename lets the builders race safely.
        fd, c_path = tempfile.mkstemp(prefix=".build-", suffix=".c", dir=root)
        tmp_so = c_path[:-2] + ".so"
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(_C_SOURCE)
            subprocess.run(
                [cc, *_cflags(), "-o", tmp_so, c_path],
                check=True, capture_output=True,
            )
            os.replace(tmp_so, so_path)
        finally:
            for path in (c_path, tmp_so):
                if os.path.exists(path):
                    os.unlink(path)
    lib = ctypes.CDLL(so_path)
    lib.run_kernel.restype = ctypes.c_int64
    lib.run_kernel.argtypes = [ctypes.POINTER(_Ctx)]
    lib.profile_feed.restype = None
    lib.profile_feed.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.trace_fill.restype = None
    lib.trace_fill.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.crc32c.restype = ctypes.c_uint32
    lib.crc32c.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_uint32]
    return lib


def _get_lib() -> Optional[ctypes.CDLL]:
    global _LIB, _REASON, _TRIED
    if _TRIED:
        return _LIB
    _TRIED = True
    if os.environ.get("REPRO_NO_CKERNEL"):
        _REASON = "disabled by REPRO_NO_CKERNEL"
        return None
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        _REASON = "no C compiler on PATH"
        return None
    try:
        _LIB = _build(cc)
    except Exception as exc:  # pragma: no cover - toolchain-dependent
        _REASON = f"build failed ({type(exc).__name__})"
        _LIB = None
    return _LIB


def lib_available() -> bool:
    """Whether the native kernel library is built and loaded (builds lazily)."""
    return _get_lib() is not None


def reason() -> Optional[str]:
    """Why the native library is unavailable (``None`` when it is available)."""
    _get_lib()
    return _REASON


# -- runner -------------------------------------------------------------------


def _merge_stamped(counters, keys, cnt_row, stamp_row) -> None:
    """Add stamped counter slots into a real defaultdict in first-touch order."""
    touched = [(int(stamp_row[i]), i) for i in range(len(keys)) if stamp_row[i] >= 0]
    touched.sort()
    for _, i in touched:
        counters[keys[i]] += int(cnt_row[i])


def _fill_lines(words: np.ndarray, occ: np.ndarray) -> List[LruSet]:
    """One cache's sets, holding its final lines.

    *words* is the cache's ``(num_sets, assoc)`` view of the kernel's
    ``line_addr`` array, and *occ* its ``num_sets`` view of ``occ``;
    :class:`~repro.cache.cache.SetAssocCache` calls this on the first read
    of its ``sets`` (:meth:`~repro.cache.cache.SetAssocCache.defer_sets`).
    Each word packs ``addr << 9 | meta``, and meta packs dirty | cc << 1 |
    f << 2 | owner << 3.  Each field becomes its own nested list of plain
    Python values, and each set's lines are one ``map(CacheLine, ...)``
    over its rows, which stops at the shortest column: the set's ``o``
    resident ways.
    """
    num_sets, assoc = words.shape
    lrusets = [LruSet(assoc) for _ in range(num_sets)]
    addrs = (words >> _META_BITS).tolist()
    dirty = (words & 1).astype(bool).tolist()
    cc = (words & 2).astype(bool).tolist()
    f = (words & 4).astype(bool).tolist()
    owner = ((words & _META_MASK) >> 3).tolist()
    for s, o in enumerate(occ.tolist()):
        if o:
            row = addrs[s][:o]
            lruset = lrusets[s]
            lruset._lines = list(
                map(CacheLine, row, dirty[s], cc[s], f[s], owner[s]))
            lruset._addrs = row
    return lrusets


def _fill_snug_state(sh_words: np.ndarray, sh_len: np.ndarray,
                     mon_val: np.ndarray, mon_mod: np.ndarray,
                     counter_bits: int, p: int):
    """One SNUG slice's ``(shadows, monitors)``, holding its final state.

    The arguments are the slice's views of the kernel's ``sh_addr`` (as
    ``(num_sets, assoc)``), ``sh_len``, ``mon_val`` and ``mon_mod`` arrays;
    the slice calls this on the first read of its ``shadows`` or
    ``monitors`` (:meth:`~repro.schemes.snug._SnugSlice.defer_state`).
    """
    num_sets, assoc = sh_words.shape
    shadows = [ShadowSet(assoc) for _ in range(num_sets)]
    for shadow, row, n in zip(shadows, sh_words.tolist(), sh_len.tolist()):
        if n:
            shadow._tags = row[:n]
    monitors = [DemandMonitorCounter(counter_bits, p) for _ in range(num_sets)]
    for monitor, value, mod in zip(monitors, mon_val.tolist(), mon_mod.tolist()):
        monitor.counter.value = value
        monitor._mod = mod
    return shadows, monitors


def _fresh_structural(scheme, caches, kind: int) -> bool:
    """Whether all *structural* containers are empty (counters/scalars may
    be anything — they are encoded from the live objects).

    Nothing unbuilt is built to tell: a cache or SNUG slice that was never
    read holds nothing, and one whose state a kernel run left in its arrays
    (a pending fill) holds state.
    """
    from ..schemes.snug import _UnbuiltSnugSlice  # local: no cycle

    for cache in caches:
        state = cache.__dict__
        if "sets" not in state:
            if state["_pending_fill"] is not None:
                return False
            continue
        for lruset in state["sets"]:
            if lruset._addrs:
                return False
    for wbuf in scheme.wbufs:
        if wbuf._entries:
            return False
    if kind >= 4:
        for m in scheme.meta:
            if type(m) is _UnbuiltSnugSlice:
                if m._pending_fill is not None:
                    return False
                continue
            for sh in m.shadows:
                if sh._tags:
                    return False
    return True


def _disjoint(cores) -> bool:
    """Whether the cores' trace address ranges are pairwise disjoint, so no
    two cores share an address (the kernel's ``disjoint`` param)."""
    spans = sorted(core.trace.addr_bounds for core in cores)
    return all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


def decline_reason(system: CmpSystem, kind: int) -> Optional[str]:
    """Why the kernel cannot run *system* (scheme *kind*), or ``None``."""
    if _get_lib() is None:
        return f"C kernel unavailable ({reason()})"
    ncores = len(system.cores)
    if ncores > 64:
        return f"{ncores} cores exceed the C kernel's 64-core limit"
    if kind >= 2 and ncores < 2:
        return f"spill scheme {system.scheme.name!r} on a single core"
    if max(core.trace.addr_bounds[1] for core in system.cores) >= _ADDR_LIMIT:
        return ("trace addresses reach 2**54, beyond the C kernel's packed "
                "line words")
    scheme = system.scheme
    if not _fresh_structural(scheme, scheme.banks if kind == 1 else scheme.slices, kind):
        return "caches, write buffers or shadow sets already hold state"
    return None


def _feed_monitor(monitor, cores, fed_pos, fed_acc, c_pos, c_acc) -> None:
    """Hand each core's accesses since the previous hand-off to *monitor*.

    Core ``i`` has stepped ``c_acc[i] - fed_acc[i]`` accesses since then:
    a contiguous, wrapping slice of its trace's address column starting at
    ``fed_pos[i]``, handed over in slices of at most :data:`_MONITOR_SLICE`
    addresses.
    """
    c_pos, c_acc = c_pos.tolist(), c_acc.tolist()
    for i, core in enumerate(cores):
        count = c_acc[i] - fed_acc[i]
        pos, n, addrs = fed_pos[i], len(core.trace), core.trace.addrs
        while count > 0:
            take = min(_MONITOR_SLICE, n - pos, count)
            monitor.observe_many(i, addrs[pos:pos + take])
            count -= take
            pos = (pos + take) % n
        fed_pos[i], fed_acc[i] = c_pos[i], c_acc[i]


def _slot_minima(ctx: _Ctx, rs: np.ndarray) -> Dict[str, int]:
    """The fewest elements the C side may touch through each slot, implied
    by the scalar inputs (plus the ring fill levels in ``rs`` for the CC
    draw buffers)."""
    ncores, kind = ctx.ncores, ctx.kind
    sets = ncores * ctx.nsets
    lines = sets * ctx.assoc
    need = dict.fromkeys(_ALL_SLOTS, 1)
    need["t_cols"] = ncores * len(_TRACE_COLS)
    need["ms"] = len(_MS)
    need["rs"] = len(_RS)
    for name in ("t_len", "c_time", "c_pos", "c_instr", "c_wraps", "c_acc",
                 "c_warm", "c_fin", "keys", "wb_head", "wb_len", "wb_next",
                 "w_lat"):
        need[name] = ncores
    need["line_addr"] = lines
    need["occ"] = need["hcnt"] = sets
    need["wb_addr"] = need["wb_time"] = ncores * max(1, ctx.wb_cap)
    need["slcnt"] = need["slstamp"] = ncores * len(_SL_KEYS)
    need["wcnt"] = need["wstamp"] = ncores * len(_WB_KEYS)
    need["dcnt"] = need["dstamp"] = len(_DR_KEYS)
    need["bcnt"] = need["bstamp"] = len(_BU_KEYS)
    need["rcnt"] = need["rstamp"] = len(_RT_KEYS)
    if ctx.banked:
        need["bank_free"] = ctx.dbank_mask + 1
    need["out_c"] = len(_OUT_KEYS)
    need["w_out"] = ncores * len(_OUT_KEYS)
    if kind >= 2:
        need["peers"] = ncores * ctx.nper
    if kind == 2:
        need["pick_buf"] = max(1, int(rs[_RS.PICK_FILL]))
        need["coin_buf"] = max(1, int(rs[_RS.COIN_FILL]))
    elif kind == 3:
        need["set_role"], need["psel"] = ctx.nsets, ncores
    elif kind >= 4:
        need["gt"] = need["sh_len"] = need["mon_val"] = need["mon_mod"] = sets
        need["sh_addr"] = lines
        if ctx.monitored:
            need["gt_in"] = sets
    return need


def _check_array(label: str, arr: np.ndarray, dtype, need: int,
                 implied_by: str) -> None:
    """Refuse an array the C side would misread: it must hold *dtype*, be
    C-contiguous and have at least *need* elements, as *implied_by* says
    (``"the params imply"``, for instance).  The error names the array by
    *label*."""
    if arr.dtype != dtype:
        raise SimulationError(
            f"{label}: dtype {arr.dtype}, the kernel reads {np.dtype(dtype)}")
    if not arr.flags.c_contiguous:
        raise SimulationError(f"{label} is not C-contiguous")
    if arr.size < need:
        raise SimulationError(
            f"{label}: {arr.size} elements, {implied_by} at least {need}")


def _trace_columns(cores):
    """Slots ``t_len`` and ``t_cols`` for *cores*: each core's trace length,
    and the addresses of its :data:`_TRACE_COLS`, which the kernel reads in
    place; plus the list of those columns, which the caller holds for the
    run (a scaled issue-gap copy has no other reference).

    Every column is checked first, by core and name, as :func:`_bind_arrays`
    checks the slots: it must hold the element type the C side reads, be
    C-contiguous and be as long as its core's trace.
    """
    t_len = np.array([len(core.trace) for core in cores], dtype=np.int64)
    t_cols = np.empty(len(cores) * len(_TRACE_COLS), dtype=np.int64)
    columns = []
    for i, core in enumerate(cores):
        for j, (name, column, dtype) in enumerate(_TRACE_COLS):
            arr = column(core)
            _check_array(f"C kernel trace column {name!r} of core {i}", arr,
                         dtype, len(core.trace),
                         "the core's trace length implies")
            t_cols[i * len(_TRACE_COLS) + j] = arr.ctypes.data
            columns.append(arr)
    return t_len, t_cols, columns


def _bind_arrays(ctx: _Ctx, arrays: Dict[str, np.ndarray]) -> None:
    """Point each array member of *ctx* at its slot in *arrays*, after
    checking every slot at entry.

    The C side trusts each pointer blindly, so each slot must be
    C-contiguous, hold the element type the C side reads (``double`` for
    ``coin_buf``, ``int64_t`` elsewhere), and be at least as long as the
    scalar inputs imply (:func:`_slot_minima`).  A slot that is not raises
    :class:`SimulationError` naming it, before any C code runs.  (The trace
    columns that ``t_cols`` points at are checked by :func:`_trace_columns`.)
    """

    def check(name: str, need: int) -> None:
        dtype = np.float64 if name == "coin_buf" else np.int64
        _check_array(f"C kernel slot {name!r}", arrays[name], dtype, need,
                     "the params imply")

    # The core count and the slot the minima are read from come first.
    if not 1 <= ctx.ncores <= 64:
        raise SimulationError(
            f"C kernel param 'ncores': {ctx.ncores} cores, the kernel takes 1-64")
    check("rs", len(_RS))
    need = _slot_minima(ctx, arrays["rs"])
    for name in _ALL_SLOTS:
        check(name, need[name])
        setattr(ctx, name, arrays[name].ctypes.data)


def profile_feed(addrs: np.ndarray, mask: int, depth: int, stk: np.ndarray,
                 lens: np.ndarray, hist: np.ndarray) -> None:
    """Step a streaming profiler's bounded per-set LRU stacks over *addrs*
    in C, bumping the hit-position histogram *hist*.

    Row ``s`` of *stk* (``depth`` wide, MRU first) holds set ``s``'s stack,
    with ``lens[s]`` live entries; ``hist[s, p]`` counts hits at stack
    position ``p`` (see :mod:`repro.cache.stackdist_stream`).  The C side
    indexes rows by ``addr & mask`` and by the ``lens`` entries, so every
    array is checked first, as :func:`_bind_arrays` checks the kernel's
    slots: ``int64``, C-contiguous, *stk* and *hist* at least
    ``num_sets * depth`` elements and *lens* at least ``num_sets``, with
    every ``lens`` entry in ``[0, depth]``.  A failure raises
    :class:`SimulationError` naming the argument, before any C code runs.
    """
    if mask < 0 or depth < 1:
        raise SimulationError(
            f"C profiler geometry: mask {mask}, depth {depth}; the profiler "
            "takes mask >= 0 and depth >= 1")
    num_sets = mask + 1
    for name, arr, need in (("addrs", addrs, 0),
                            ("stk", stk, num_sets * depth),
                            ("lens", lens, num_sets),
                            ("hist", hist, num_sets * depth)):
        _check_array(f"C profiler argument {name!r}", arr, np.int64, need,
                     "mask and depth imply")
    if lens.min() < 0 or lens.max() > depth:
        raise SimulationError(
            f"C profiler argument 'lens': entries span [{lens.min()}, "
            f"{lens.max()}], the rows hold [0, {depth}]")
    _get_lib().profile_feed(addrs.ctypes.data, addrs.size, mask, depth,
                            stk.ctypes.data, lens.ctypes.data, hist.ctypes.data)


def trace_fill(sets: np.ndarray, kind: np.ndarray, pick: np.ndarray,
               wmap: np.ndarray, stream_cut: float, cyclic_cut: float,
               stream_base: int, out: np.ndarray) -> None:
    """Write one generated phase's block addresses into *out*, in C.

    Access ``i`` goes to set ``sets[i]`` of the demand map *wmap* (one
    working-set size per set) and takes the pattern *kind* ``[i]`` selects:
    streaming below *stream_cut*, a cyclic walk at or above *cyclic_cut*,
    and otherwise the random pick ``int(pick[i] * wmap[sets[i]])`` (see
    :func:`repro.workloads.synthetic._generate_phase`).  The C side indexes
    *wmap* and its per-set counters by ``sets[i]`` for every ``i`` below
    ``out.size``, so every array is checked first, as
    :func:`profile_feed`'s are: *sets*, *wmap* and *out* ``int64``, *kind*
    and *pick* ``float64``, all C-contiguous, the three draw columns at
    least ``out.size`` long and *wmap* not empty; every set in
    ``[0, wmap.size)``; every working set at least 1; and every address
    below 2**63.  A failure raises :class:`SimulationError` naming the
    argument, before any C code runs.
    """
    _check_array("C trace_fill argument 'out'", out, np.int64, 0, "")
    n = out.size
    for name, arr, dtype in (("sets", sets, np.int64),
                             ("kind", kind, np.float64),
                             ("pick", pick, np.float64)):
        _check_array(f"C trace_fill argument {name!r}", arr, dtype, n,
                     "the output implies")
    _check_array("C trace_fill argument 'wmap'", wmap, np.int64, 1,
                 "a demand map needs")
    num_sets = wmap.size
    if n and (sets[:n].min() < 0 or sets[:n].max() >= num_sets):
        raise SimulationError(
            f"C trace_fill argument 'sets': entries span [{sets[:n].min()}, "
            f"{sets[:n].max()}], the demand map covers [0, {num_sets - 1}]")
    lo, hi = int(wmap.min()), int(wmap.max())
    if lo < 1:
        raise SimulationError(
            f"C trace_fill argument 'wmap': working sets span [{lo}, {hi}], "
            "each must be at least 1")
    if (max(stream_base + n, hi) + 1) * num_sets > 1 << 63:
        raise SimulationError(
            f"C trace_fill: stream base {stream_base}, {n} accesses and "
            f"working sets up to {hi} over {num_sets} sets make addresses "
            "past 2**63")
    cnt = np.zeros(2 * num_sets, dtype=np.int64)
    _get_lib().trace_fill(sets.ctypes.data, kind.ctypes.data, pick.ctypes.data,
                          n, wmap.ctypes.data, num_sets, stream_cut,
                          cyclic_cut, stream_base, cnt.ctypes.data,
                          out.ctypes.data)


def crc32c(data: bytes, crc: int) -> int:
    """CRC32C (Castagnoli) of *data*, continuing from register value *crc*,
    in C.  The C side reads ``len(data)`` bytes at the buffer of *data*;
    the caller (:func:`repro.engine.store.format.crc32c`) has checked that
    *data* is :class:`bytes` and *crc* a 32-bit value."""
    return _get_lib().crc32c(data, len(data), crc)


def run_kernel(system: CmpSystem, target: int, warmup: int,
               max_events: Optional[int], kind: int) -> SimResult:
    """Run *system* once through the native kernel, as scheme *kind*.

    The caller has checked :func:`decline_reason`.  The run starts and ends
    as the spec's does, with :meth:`CmpSystem._start_run` (which gives the
    event budget) and :meth:`CmpSystem._finish_run`.  Every live object
    holds its final state when this returns or raises the budget-exhausted
    error, exactly as after :meth:`CmpSystem.run`: the caches' lines are
    built on the first read of their ``sets``.
    """
    budget = system._start_run(target, warmup, max_events)
    lib = _get_lib()
    from ..schemes.snug import STAGE_GROUP, STAGE_IDENTIFY, _SnugSlice  # local: no cycle

    scheme = system.scheme
    cores = system.cores
    ncores = len(cores)
    config = system.config
    caches = scheme.banks if kind == 1 else scheme.slices
    monitor = scheme.monitor if kind >= 4 else None

    cshift = (ncores - 1).bit_length()
    finish_at = warmup + target
    geo = config.l2
    num_sets = geo.num_sets
    assoc = geo.assoc
    wb_cfg = scheme.wbufs[0].config
    dram = scheme.dram
    bus = scheme.bus

    ctx = _Ctx(
        ncores=ncores, kind=kind, warmup=warmup, finish_at=finish_at,
        budget=budget, l1_lat=config.latency.l1_hit,
        lat_local=config.latency.l2_local,
        lat_remote=config.latency.l2_remote, dram_lat=dram._latency,
        banked=dram._model_banks, dbank_mask=dram.config.num_banks - 1,
        dbank_busy=dram.config.bank_busy_cycles,
        contention=bus.config.model_contention,
        snoop_cost=bus.config.transfer_cycles(_ADDRESS_BYTES),
        line_cost=bus.config.transfer_cycles(geo.line_bytes),
        line_bytes=geo.line_bytes, imask=num_sets - 1, assoc=assoc,
        nsets=num_sets, wb_cap=wb_cfg.entries,
        wb_drain=wb_cfg.drain_cycles, wb_direct=wb_cfg.direct_read,
        cshift=cshift, cmask=(1 << cshift) - 1,
    )

    # Trace columns: read in place, through each column's address; the
    # list holds any scaled issue-gap copy until the run ends.
    t_len, t_cols, trace_columns = _trace_columns(cores)

    c_time = np.array([c.time for c in cores], dtype=np.int64)
    c_pos = np.array([c.pos for c in cores], dtype=np.int64)
    c_instr = np.array([c.instructions for c in cores], dtype=np.int64)
    c_wraps = np.array([c.wraps for c in cores], dtype=np.int64)
    c_acc = np.array([c.accesses for c in cores], dtype=np.int64)
    c_warm = np.array(
        [-1 if c.warmup_end_time is None else c.warmup_end_time for c in cores],
        dtype=np.int64)
    c_fin = np.array(
        [-1 if c.finish_time is None else c.finish_time for c in cores],
        dtype=np.int64)
    keys = np.array(
        [(core.peek_issue_time() << cshift) | i for i, core in enumerate(cores)],
        dtype=np.int64)

    line_addr = np.zeros(ncores * num_sets * assoc, dtype=np.int64)
    occ = np.zeros(ncores * num_sets, dtype=np.int64)
    hcnt = np.zeros(ncores * num_sets, dtype=np.int64)
    cap = max(1, wb_cfg.entries)
    wb_addr = np.zeros(ncores * cap, dtype=np.int64)
    wb_time = np.zeros(ncores * cap, dtype=np.int64)
    wb_head = np.zeros(ncores, dtype=np.int64)
    wb_len = np.zeros(ncores, dtype=np.int64)
    wb_next = np.array([w._next_drain_at for w in scheme.wbufs], dtype=np.int64)

    nsl, nwb, ndr, nbu, nrt = len(_SL_KEYS), len(_WB_KEYS), len(_DR_KEYS), \
        len(_BU_KEYS), len(_RT_KEYS)
    slcnt = np.zeros(ncores * nsl, dtype=np.int64)
    slstamp = np.full(ncores * nsl, -1, dtype=np.int64)
    wcnt = np.zeros(ncores * nwb, dtype=np.int64)
    wstamp = np.full(ncores * nwb, -1, dtype=np.int64)
    dcnt = np.zeros(ndr, dtype=np.int64)
    dstamp = np.full(ndr, -1, dtype=np.int64)
    bcnt = np.zeros(nbu, dtype=np.int64)
    bstamp = np.full(nbu, -1, dtype=np.int64)
    rcnt = np.zeros(nrt, dtype=np.int64)
    rstamp = np.full(nrt, -1, dtype=np.int64)
    stamp = np.zeros(1, dtype=np.int64)
    bank_free = np.array(dram._bank_free_at, dtype=np.int64) \
        if dram._model_banks else np.zeros(1, dtype=np.int64)
    bus_busy = np.array([bus._busy_until], dtype=np.int64)
    out_c = np.zeros(4, dtype=np.int64)
    w_out = np.zeros(ncores * 4, dtype=np.int64)
    w_lat = np.zeros(ncores, dtype=np.int64)
    ms = np.zeros(len(_MS), dtype=np.int64)
    ms[_MS.REMAINING] = ncores
    rs = np.zeros(len(_RS), dtype=np.int64)

    zi = np.zeros(1, dtype=np.int64)
    set_role = psel = gt = gt_in = sh_addr = sh_len = mon_val = mon_mod = zi
    pick_buf, peers = zi, zi
    coin_buf = np.zeros(1, dtype=np.float64)
    spill_mode = 0

    if kind >= 2:
        nper = ctx.nper = ncores - 1
        peers = np.array(
            [pp for row in scheme._peers for pp in row], dtype=np.int64)
        if kind in (2, 3):
            ctx.disjoint = _disjoint(cores)
    if kind == 2:
        spill_p = ctx.spill_p = scheme.spill_probability
        spill_mode = 0 if spill_p <= 0.0 else (1 if spill_p >= 1.0 else 2)
        ctx.spill_mode = spill_mode
        if spill_mode:
            pick_buf = np.empty(_RNG_CAP, dtype=np.int64)
            pick_buf[:] = scheme._peer_pick.integers(0, nper, size=_RNG_CAP)
            rs[_RS.PICK_FILL] = _RNG_CAP
            if spill_mode == 2:
                coin_buf = np.empty(_RNG_CAP, dtype=np.float64)
                coin_buf[:] = scheme._coin.random(size=_RNG_CAP)
                rs[_RS.COIN_FILL] = _RNG_CAP
    elif kind == 3:
        psel_bits = config.dsr.psel_bits
        ctx.psel_max = (1 << psel_bits) - 1
        ctx.psel_msb = psel_bits - 1
        set_role = np.array(scheme.set_role, dtype=np.int64)
        psel = np.array([pc.value for pc in scheme.psel], dtype=np.int64)
        ms[_MS.RR] = scheme._rr
    elif kind >= 4:  # the SNUG family: snug, snug_intra
        snug_cfg = scheme.snug_cfg
        mon_bits = snug_cfg.counter_bits
        ctx.lat_snug = config.latency.l2_remote_snug
        ctx.mon_max = (1 << mon_bits) - 1
        ctx.mon_msb = mon_bits - 1
        ctx.mon_reset = (1 << (mon_bits - 1)) - 1
        ctx.pthr = snug_cfg.p_threshold
        ctx.mon_group = snug_cfg.monitor_during_group
        ctx.flip_en = snug_cfg.flip_enabled
        ctx.flush_flip = snug_cfg.flush_on_flip_to_taker
        ctx.ident_cyc = snug_cfg.identify_cycles
        ctx.group_cyc = snug_cfg.group_cycles
        ms[_MS.STAGE] = 0 if scheme.stage == STAGE_IDENTIFY else 1
        ms[_MS.STAGE_END] = scheme._stage_end
        ms[_MS.EPOCH] = scheme.epoch
        ms[_MS.SPILL_RR] = scheme._spill_rr
        gt = np.array(
            [1 if t else 0 for m in scheme.meta for t in m.gt_taker],
            dtype=np.int64)
        sh_addr = np.zeros(ncores * num_sets * assoc, dtype=np.int64)
        sh_len = np.zeros(ncores * num_sets, dtype=np.int64)
        # A never-read slice's monitors are new ones: reset value, mod 0.
        mon_val = np.full(ncores * num_sets, ctx.mon_reset, dtype=np.int64)
        mon_mod = np.zeros(ncores * num_sets, dtype=np.int64)
        for c, m in enumerate(scheme.meta):
            if type(m) is _SnugSlice:
                rows = slice(c * num_sets, (c + 1) * num_sets)
                mon_val[rows] = [mc.counter.value for mc in m.monitors]
                mon_mod[rows] = [mc._mod for mc in m.monitors]
        if monitor is not None:
            ctx.monitored = 1
            gt_in = np.zeros(ncores * num_sets, dtype=np.int64)

    _bind_arrays(ctx, dict(
        t_len=t_len, t_cols=t_cols,
        c_time=c_time, c_pos=c_pos, c_instr=c_instr, c_wraps=c_wraps,
        c_acc=c_acc, c_warm=c_warm, c_fin=c_fin, keys=keys,
        line_addr=line_addr, occ=occ, hcnt=hcnt,
        wb_addr=wb_addr, wb_time=wb_time, wb_head=wb_head, wb_len=wb_len,
        wb_next=wb_next, slcnt=slcnt, slstamp=slstamp, wcnt=wcnt,
        wstamp=wstamp, dcnt=dcnt, dstamp=dstamp, bcnt=bcnt, bstamp=bstamp,
        rcnt=rcnt, rstamp=rstamp, stamp=stamp, bank_free=bank_free,
        bus_busy=bus_busy, out_c=out_c, w_out=w_out, w_lat=w_lat, ms=ms,
        set_role=set_role, psel=psel, gt=gt, gt_in=gt_in, sh_addr=sh_addr,
        sh_len=sh_len, mon_val=mon_val, mon_mod=mon_mod, pick_buf=pick_buf,
        rs=rs, peers=peers, coin_buf=coin_buf,
    ))

    fed_pos = [core.pos for core in cores]
    fed_acc = [core.accesses for core in cores]
    latch_error = None
    while True:
        rc = lib.run_kernel(ctypes.byref(ctx))
        if rc == _RC.LATCH:
            # The monitor sees every access before the crossing one, then
            # latches; its taker bits replace the counter MSBs in latch_gt.
            _feed_monitor(monitor, cores, fed_pos, fed_acc, c_pos, c_acc)
            try:
                vectors = monitor.latch()
            except Exception as exc:  # merge the live state, then re-raise
                latch_error = exc
                break
            for i, vec in enumerate(vectors):
                gt_in[i * num_sets:(i + 1) * num_sets] = np.asarray(vec, dtype=bool)
            ms[_MS.GT_READY] = 1
            continue
        if rc != _RC.RNG:
            break
        # Top up the RNG rings, preserving unconsumed (already drawn) values
        # so the consumption sequence matches scalar draw order exactly.
        if spill_mode == 2:
            pos, fill = int(rs[_RS.COIN_POS]), int(rs[_RS.COIN_FILL])
            rem = fill - pos
            if rem:
                coin_buf[:rem] = coin_buf[pos:fill]
            coin_buf[rem:] = scheme._coin.random(size=_RNG_CAP - rem)
            rs[_RS.COIN_POS] = 0
            rs[_RS.COIN_FILL] = _RNG_CAP
        pos, fill = int(rs[_RS.PICK_POS]), int(rs[_RS.PICK_FILL])
        rem = fill - pos
        if rem:
            pick_buf[:rem] = pick_buf[pos:fill]
        pick_buf[rem:] = scheme._peer_pick.integers(0, nper, size=_RNG_CAP - rem)
        rs[_RS.PICK_POS] = 0
        rs[_RS.PICK_FILL] = _RNG_CAP

    if monitor is not None:
        _feed_monitor(monitor, cores, fed_pos, fed_acc, c_pos, c_acc)

    # -- merge the SoA state back into the live objects (lines deferred) -----
    for i, core in enumerate(cores):
        core.time = int(c_time[i])
        core.pos = int(c_pos[i])
        core.instructions = int(c_instr[i])
        core.wraps = int(c_wraps[i])
        core.accesses = int(c_acc[i])
        core.warmup_end_time = int(c_warm[i]) if c_warm[i] >= 0 else None
        core.finish_time = int(c_fin[i]) if c_fin[i] >= 0 else None
    # Lines stay in the arrays: each cache builds its own from its views
    # on the first read of its sets.
    words_v = line_addr.reshape(ncores, num_sets, assoc)
    occ_v = occ.reshape(ncores, num_sets)
    for c, cache in enumerate(caches):
        cache.defer_sets(partial(_fill_lines, words_v[c], occ_v[c]))
        _merge_stamped(cache._counters, _SL_KEYS,
                       slcnt[c * nsl:(c + 1) * nsl],
                       slstamp[c * nsl:(c + 1) * nsl])
    for c, wbuf in enumerate(scheme.wbufs):
        head, wlen = int(wb_head[c]), int(wb_len[c])
        for j in range(wlen):
            idx = c * cap + (head + j) % cap
            wbuf._entries[int(wb_addr[idx])] = int(wb_time[idx])
        wbuf._next_drain_at = int(wb_next[c])
        _merge_stamped(wbuf.stats.counters, _WB_KEYS,
                       wcnt[c * nwb:(c + 1) * nwb],
                       wstamp[c * nwb:(c + 1) * nwb])
    _merge_stamped(dram._counters, _DR_KEYS, dcnt, dstamp)
    if dram._model_banks:
        dram._bank_free_at[:] = [int(x) for x in bank_free]
    _merge_stamped(bus._counters, _BU_KEYS, bcnt, bstamp)
    if bus.config.model_contention:
        bus._busy_until = int(bus_busy[0])
    if kind == 3:
        scheme._rr = int(ms[_MS.RR])
        for i, pc in enumerate(scheme.psel):
            pc.value = int(psel[i])
    elif kind >= 4:
        scheme.stage = STAGE_IDENTIFY if ms[_MS.STAGE] == 0 else STAGE_GROUP
        scheme._stage_end = int(ms[_MS.STAGE_END])
        scheme.epoch = int(ms[_MS.EPOCH])
        scheme._spill_rr = int(ms[_MS.SPILL_RR])
        # Shadow tags and monitors stay in the arrays, as the lines do.
        gt_l = gt.astype(bool).reshape(ncores, num_sets).tolist()
        sh_v = sh_addr.reshape(ncores, num_sets, assoc)
        shlen_v = sh_len.reshape(ncores, num_sets)
        mv_v = mon_val.reshape(ncores, num_sets)
        mm_v = mon_mod.reshape(ncores, num_sets)
        for c, meta in enumerate(scheme.meta):
            meta.gt_taker[:] = gt_l[c]
            meta.defer_state(partial(
                _fill_snug_state, sh_v[c], shlen_v[c], mv_v[c], mm_v[c],
                snug_cfg.counter_bits, snug_cfg.p_threshold))
        _merge_stamped(scheme.stats.counters, _RT_KEYS, rcnt, rstamp)

    if latch_error is not None:
        raise latch_error
    if rc == _RC.BUDGET:
        raise budget_exhausted_error(budget, cores, finish_at)

    del trace_columns
    return system._finish_run(
        dict(zip(_OUT_KEYS, out_c.tolist())),
        [dict(zip(_OUT_KEYS, row)) for row in w_out.reshape(ncores, 4).tolist()],
        w_lat.tolist(),
    )
