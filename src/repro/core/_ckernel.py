"""Native (C) kernel of the compiled simulation core.

The executable spec is :mod:`repro.core.reference` plus the schemes'
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

Everything mutable lives in preallocated ``int64`` NumPy arrays; the
wrapper encodes the live system state into them, runs the kernel, and
merges the arrays back into the real objects — including stat-counter
*first-touch order*, reproduced via stamp arrays, because
``SimResult.to_dict()`` round-trips through JSON where dict insertion
order is part of byte-identity.

The kernel is resumable: all loop state (event count, finish countdown,
round-robin cursors, SNUG stage machinery) lives in the arrays, so the C
function can return to Python mid-run and be re-entered.  Two exits use
that:

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

:func:`decline_reason` names the systems the kernel does not take — no
library (``REPRO_NO_CKERNEL=1``, no C compiler, or a failed build), more
than 64 cores, a spill scheme on one core, or caches that already hold
state; :class:`~repro.core.compiled.CompiledCmpSystem` runs those on the
fast loop.
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
from typing import Dict, Optional

import numpy as np

from ..cache.block import CacheLine
from ..common.errors import SimulationError
from ..schemes.base import Outcome
from .cmp import CmpSystem, SimResult, budget_exhausted_error

__all__ = ["run_kernel", "decline_reason", "reason", "lib_available"]

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

#: Scalar inputs: ``int64_t`` members of ``Ctx``, read by value.  The one
#: ``double`` scalar, CC's spill probability, follows them as ``spill_p``.
_PARAMS = (
    "ncores", "kind", "warmup", "finish_at", "budget", "l1_lat", "lat_local",
    "lat_remote", "lat_snug", "dram_lat", "banked", "dbank_mask",
    "dbank_busy", "contention", "snoop_cost", "line_cost", "line_bytes",
    "imask", "assoc", "wb_cap", "wb_drain", "wb_direct", "cshift", "cmask",
    "nper", "spill_mode", "psel_max", "psel_msb", "nsets", "mon_max",
    "mon_msb", "mon_reset", "pthr", "mon_group", "flip_en", "flush_flip",
    "ident_cyc", "group_cyc", "monitored",
)

#: Array inputs: ``int64_t *`` members of ``Ctx``.  The one ``double *``
#: slot, CC's coin ring, follows them as ``coin_buf``.
_SLOTS = (
    "offs", "t_addr", "t_gap", "t_gapc", "t_write",
    "c_time", "c_pos", "c_instr", "c_wraps", "c_acc", "c_warm", "c_fin",
    "keys", "line_addr", "line_meta", "occ",
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
             ("RS", _RS.__members__), ("RC", _RC.__members__))
    lines = [
        "enum { %s, N%s };" % (
            ", ".join(f"{prefix}_{name.upper()}" for name in names), prefix)
        for prefix, names in enums
    ]
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

#: Most addresses handed to a SNUG demand monitor in one call, so its
#: buffered memory stays bounded however long a stage runs.
_MONITOR_SLICE = 8192

_C_SOURCE = r"""
/* Structure-of-arrays event loop for the repro compiled simulation core.
 *
 * One translation unit, one exported function:
 *     int64_t run_kernel(const Ctx *in);
 * The enums and the Ctx struct below are generated from the Python tables
 * in _ckernel.py, which fill Ctx: scalar inputs by value, array inputs as
 * pointers.  `kind` selects the scheme: 0 l2p, 1 l2s, 2 cc, 3 dsr, 4 snug,
 * 5 snug_intra (its index in compiled._KERNEL_SCHEMES); kind 5 is kind 4
 * plus the local flipped-set retrieval and spill.  All semantics transcribe
 * the executable spec (core/reference.py plus each scheme's access()) term
 * for term, stat-counter first-touch order included (the stamp arrays
 * record the global first-touch tick of each counter slot; the Python
 * merge replays them in stamp order).
 */
#include <stdint.h>

typedef int64_t i64;

""" + _c_interface() + r"""
/* Bump counter slot `idx` of (cnt, stp) by v, stamping on first touch. */
#define BUMP(cnt, stp, idx, v) do { \
        if ((stp)[idx] < 0) (stp)[idx] = (*C->stamp)++; \
        (cnt)[idx] += (v); \
    } while (0)

static i64 bus_snoop(Ctx *C, i64 now) {
    BUMP(C->bcnt, C->bstamp, BU_SNOOPS, 1);
    BUMP(C->bcnt, C->bstamp, BU_BUSY_CYCLES, C->snoop_cost);
    BUMP(C->bcnt, C->bstamp, BU_BYTES, 8);
    if (!C->contention) return 0;
    i64 bu = *C->bus_busy;
    i64 start = bu > now ? bu : now;
    i64 delay = start - now;
    *C->bus_busy = start + C->snoop_cost;
    if (delay) BUMP(C->bcnt, C->bstamp, BU_QUEUE_CYCLES, delay);
    return delay;
}

static i64 bus_transfer(Ctx *C, i64 now) {
    BUMP(C->bcnt, C->bstamp, BU_TRANSFERS, 1);
    BUMP(C->bcnt, C->bstamp, BU_BUSY_CYCLES, C->line_cost);
    BUMP(C->bcnt, C->bstamp, BU_BYTES, C->line_bytes);
    if (!C->contention) return 0;
    i64 bu = *C->bus_busy;
    i64 start = bu > now ? bu : now;
    i64 delay = start - now;
    *C->bus_busy = start + C->line_cost;
    if (delay) BUMP(C->bcnt, C->bstamp, BU_QUEUE_CYCLES, delay);
    return delay;
}

static i64 mem_fetch(Ctx *C, i64 addr, i64 now) {
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
static int wb_try_read(Ctx *C, i64 c, i64 baddr, i64 now) {
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

static i64 find_way(Ctx *C, i64 c, i64 set, i64 addr) {
    i64 idx = c * C->nsets + set;
    i64 *la = C->line_addr + idx * C->assoc;
    i64 occ = C->occ[idx];
    for (i64 j = 0; j < occ; j++) if (la[j] == addr) return j;
    return -1;
}

/* The way holding addr as a hosted (CC) line in c's set, or -1. */
static i64 hosted_way(Ctx *C, i64 c, i64 set, i64 addr) {
    i64 w = find_way(C, c, set, addr);
    if (w >= 0 && !(C->line_meta[(c * C->nsets + set) * C->assoc + w] & 2))
        return -1;
    return w;
}

static void touch_mru(Ctx *C, i64 c, i64 set, i64 way) {
    if (!way) return;
    i64 base = (c * C->nsets + set) * C->assoc;
    i64 *la = C->line_addr + base, *lm = C->line_meta + base;
    i64 a = la[way], m = lm[way];
    for (i64 j = way; j > 0; j--) { la[j] = la[j - 1]; lm[j] = lm[j - 1]; }
    la[0] = a; lm[0] = m;
}

static void remove_way(Ctx *C, i64 c, i64 set, i64 way) {
    i64 idx = c * C->nsets + set;
    i64 base = idx * C->assoc;
    i64 *la = C->line_addr + base, *lm = C->line_meta + base;
    i64 occ = C->occ[idx];
    for (i64 j = way; j < occ - 1; j++) { la[j] = la[j + 1]; lm[j] = lm[j + 1]; }
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

/* Insert a line at MRU; returns 1 when a victim was evicted (out-params).
 * Bumps fills/evictions. */
static int do_fill(Ctx *C, i64 c, i64 set, i64 addr, i64 meta,
                   i64 *vaddr, i64 *vmeta) {
    i64 idx = c * C->nsets + set;
    i64 base = idx * C->assoc;
    i64 *la = C->line_addr + base, *lm = C->line_meta + base;
    i64 occ = C->occ[idx];
    int evicted = 0;
    if (occ >= C->assoc) {
        *vaddr = la[occ - 1]; *vmeta = lm[occ - 1];
        occ--; evicted = 1;
    }
    for (i64 j = occ; j > 0; j--) { la[j] = la[j - 1]; lm[j] = lm[j - 1]; }
    la[0] = addr; lm[0] = meta;
    C->occ[idx] = occ + 1;
    i64 *sc = C->slcnt + c * NSL, *ss = C->slstamp + c * NSL;
    BUMP(sc, ss, SL_FILLS, 1);
    if (evicted) BUMP(sc, ss, SL_EVICTIONS, 1);
    return evicted;
}
"""

_C_SOURCE += r"""
static void cc_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner, i64 now) {
    i64 *pl = C->peers + owner * C->nper;
    i64 host = pl[C->pick_buf[C->rs[RS_PICK_POS]++]];
    bus_snoop(C, now);
    bus_transfer(C, now);
    i64 hva = 0, hvm = 0;
    int ev = do_fill(C, host, vaddr & C->imask, vaddr, 2 | (vowner << 3),
                     &hva, &hvm);
    i64 *hc = C->slcnt + host * NSL, *hs = C->slstamp + host * NSL;
    i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
    BUMP(oc, os, SL_SPILLS_OUT, 1);
    BUMP(hc, hs, SL_SPILLS_HOSTED, 1);
    if (ev) {
        if (hvm & 2) BUMP(hc, hs, SL_CC_EVICTED, 1);
        else if (hvm & 1) {
            BUMP(hc, hs, SL_WRITEBACKS, 1);
            wb_deposit(C, host, hva, now);
        }
    }
}

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
    bus_snoop(C, now);
    bus_transfer(C, now);
    i64 hva = 0, hvm = 0;
    int ev = do_fill(C, host, vaddr & C->imask, vaddr, 2 | (vowner << 3),
                     &hva, &hvm);
    i64 *hc = C->slcnt + host * NSL, *hs = C->slstamp + host * NSL;
    BUMP(oc, os, SL_SPILLS_OUT, 1);
    BUMP(hc, hs, SL_SPILLS_HOSTED, 1);
    if (ev) {
        if (hvm & 2) BUMP(hc, hs, SL_CC_EVICTED, 1);
        else if (hvm & 1) {
            BUMP(hc, hs, SL_WRITEBACKS, 1);
            wb_deposit(C, host, hva, now);
        }
    }
}

/* SnugCache._dispose_host_victim: a victim displaced by hosting a spill
 * into host's set hidx never cascades another spill. */
static void dispose_host_victim(Ctx *C, i64 host, i64 hidx, i64 hva, i64 hvm,
                                i64 now) {
    i64 *hc = C->slcnt + host * NSL, *hs = C->slstamp + host * NSL;
    if (hvm & 2) BUMP(hc, hs, SL_CC_EVICTED, 1);
    else if (hvm & 1) {
        BUMP(hc, hs, SL_WRITEBACKS, 1);
        wb_deposit(C, host, hva, now);
    } else if ((hva & C->imask) == hidx) {
        shadow_record(C, host, hidx, hva);
    }
}

static void snug_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner, i64 si,
                       i64 now) {
    bus_snoop(C, now);
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
    bus_transfer(C, now);
    i64 hva = 0, hvm = 0;
    int ev = do_fill(C, cand_peer, cand_idx, vaddr,
                     2 | (cand_f ? 4 : 0) | (vowner << 3), &hva, &hvm);
    i64 *pc = C->slcnt + cand_peer * NSL, *ps = C->slstamp + cand_peer * NSL;
    BUMP(oc, os, SL_SPILLS_OUT, 1);
    BUMP(pc, ps, SL_SPILLS_HOSTED, 1);
    if (cand_f) BUMP(pc, ps, SL_SPILLS_HOSTED_FLIPPED, 1);
    if (ev) dispose_host_victim(C, cand_peer, cand_idx, hva, hvm, now);
}

/* SnugIntraCache._spill: the owner's own flipped giver set first (a CC|f
 * line the owner keeps, no bus traffic), else the inter-cache spill. */
static void snug_intra_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner,
                             i64 si, i64 now) {
    i64 flipped = si ^ 1;
    if (C->flip_en && !C->gt[owner * C->nsets + flipped]) {
        i64 hva = 0, hvm = 0;
        int ev = do_fill(C, owner, flipped, vaddr, 2 | 4 | (owner << 3),
                         &hva, &hvm);
        i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
        BUMP(oc, os, SL_SPILLS_INTRA, 1);
        if (ev) dispose_host_victim(C, owner, flipped, hva, hvm, now);
        return;
    }
    snug_spill(C, owner, vaddr, vowner, si, now);
}

/* SnugCache._retrieve: the first peer holding a hosted (CC) copy of addr
 * in a giver set at si or, with flipping, si ^ 1 (G/T-gated: taker sets
 * are never probed), or -1.  The copy's set and way go to *fidx, *fway. */
static i64 snug_retrieve(Ctx *C, i64 cid, i64 si, i64 addr, i64 *fidx,
                         i64 *fway) {
    i64 flipped = si ^ 1;
    i64 *pl = C->peers + cid * C->nper;
    for (i64 j = 0; j < C->nper; j++) {
        i64 peer = pl[j];
        i64 *gt = C->gt + peer * C->nsets;
        if (!gt[si]) {
            i64 w = hosted_way(C, peer, si, addr);
            if (w >= 0) { *fidx = si; *fway = w; return peer; }
        }
        if (C->flip_en && !gt[flipped]) {
            i64 w = hosted_way(C, peer, flipped, addr);
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
                i64 base = idx * C->assoc;
                i64 *la = C->line_addr + base, *lm = C->line_meta + base;
                i64 occ = C->occ[idx];
                i64 w = 0;
                for (i64 j = 0; j < occ; j++) {
                    if (lm[j] & 2) {
                        BUMP(sc, ss, SL_CC_FLUSHED, 1);
                    } else {
                        la[w] = la[j]; lm[w] = lm[j]; w++;
                    }
                }
                C->occ[idx] = w;
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

/* Demand fill into cid's slice/bank + scheme-specific victim disposal.
 * Returns the write-buffer stall, if any. */
static i64 fill_dispose(Ctx *C, i64 cid, i64 addr, i64 dirty, i64 now) {
    i64 va = 0, vm = 0;
    int ev = do_fill(C, cid, addr & C->imask, addr,
                     (dirty ? 1 : 0) | (cid << 3), &va, &vm);
    if (!ev) return 0;
    i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
    if (C->kind == 1) {
        if (vm & 1) {
            BUMP(sc, ss, SL_WRITEBACKS, 1);
            return wb_deposit(C, cid, va, now);
        }
        return 0;
    }
    if (vm & 2) { BUMP(sc, ss, SL_CC_EVICTED, 1); return 0; }
    if (vm & 1) {
        BUMP(sc, ss, SL_WRITEBACKS, 1);
        return wb_deposit(C, cid, va, now);
    }
    if (C->kind == 2) {
        if (C->spill_mode == 1 ||
            (C->spill_mode == 2 &&
             C->coin_buf[C->rs[RS_COIN_POS]++] < C->spill_p))
            cc_spill(C, cid, va, vm >> 3, now);
    } else if (C->kind == 3) {
        i64 vsi = va & C->imask;
        i64 role = C->set_role[vsi];
        int spills;
        if (role == 1) spills = 1;
        else if (role == 2) spills = 0;
        else spills = (C->psel[cid] >> C->psel_msb) != 0;
        if (spills) dsr_spill(C, cid, va, vm >> 3, now);
    } else if (C->kind == 4 || C->kind == 5) {
        i64 vsi = va & C->imask;
        shadow_record(C, cid, vsi, va);
        if (C->ms[MS_STAGE] == 1 && C->gt[cid * C->nsets + vsi]) {
            if (C->kind == 5)
                snug_intra_spill(C, cid, va, vm >> 3, vsi, now);
            else
                snug_spill(C, cid, va, vm >> 3, vsi, now);
        }
    }
    return 0;
}

i64 run_kernel(const Ctx *in) {
    Ctx ctx = *in;  /* a local copy: no store through a state array aliases it */
    Ctx *C = &ctx;

    i64 ncores = C->ncores, kind = C->kind;
    i64 budget = C->budget, finish_at = C->finish_at, warmup = C->warmup;

    while (C->ms[MS_REMAINING]) {
        if (kind == 2 && C->spill_mode) {
            if (C->rs[RS_PICK_POS] >= C->rs[RS_PICK_FILL] ||
                (C->spill_mode == 2 &&
                 C->rs[RS_COIN_POS] >= C->rs[RS_COIN_FILL]))
                return RC_RNG;
        }
        C->ms[MS_EVENTS]++;
        if (C->ms[MS_EVENTS] > budget) return RC_BUDGET;
        i64 k = C->keys[0];
        for (i64 i = 1; i < ncores; i++) if (C->keys[i] < k) k = C->keys[i];
        i64 cid = k & C->cmask;
        i64 issue = k >> C->cshift;
        int was_done = C->c_fin[cid] >= 0;
        int warmed = C->c_warm[cid] >= 0;
        i64 pos = C->c_pos[cid];
        i64 off = C->offs[cid];
        i64 n = C->offs[cid + 1] - off;
        i64 addr = C->t_addr[off + pos];
        i64 is_write = C->t_write[off + pos];
        i64 latency = 0, okey = 0, stall;

        if (kind == 0) {                       /* ---- l2p ---- */
            i64 set = addr & C->imask;
            i64 way = find_way(C, cid, set, addr);
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            if (way >= 0) {
                touch_mru(C, cid, set, way);
                BUMP(sc, ss, SL_HITS, 1);
                if (is_write)
                    C->line_meta[(cid * C->nsets + set) * C->assoc] |= 1;
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, addr, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    latency = mem_fetch(C, addr, issue);
                    stall = fill_dispose(C, cid, addr, is_write, issue);
                    BUMP(sc, ss, SL_DRAM_FETCHES, 1);
                    latency += stall; okey = 3;
                }
            }
        } else if (kind == 1) {                /* ---- l2s ---- */
            i64 bank = addr & C->cmask;
            i64 la = addr >> C->cshift;
            i64 base, rokey;
            if (bank == cid) { base = C->lat_local; rokey = 0; }
            else { base = C->lat_remote; rokey = 2; bus_snoop(C, issue); }
            i64 set = la & C->imask;
            i64 way = find_way(C, bank, set, la);
            i64 *sc = C->slcnt + bank * NSL, *ss = C->slstamp + bank * NSL;
            if (way >= 0) {
                touch_mru(C, bank, set, way);
                BUMP(sc, ss, SL_HITS, 1);
                if (is_write)
                    C->line_meta[(bank * C->nsets + set) * C->assoc] |= 1;
                latency = base; okey = rokey;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, bank, la, issue)) {
                    stall = fill_dispose(C, bank, la, 1, issue);
                    latency = base + stall; okey = 1;
                } else {
                    i64 lat = mem_fetch(C, addr, issue);
                    stall = fill_dispose(C, bank, la, is_write, issue);
                    BUMP(sc, ss, SL_DRAM_FETCHES, 1);
                    latency = base + lat + stall; okey = 3;
                }
            }
        } else if (kind == 4 || kind == 5) {   /* ---- snug, snug_intra ---- */
            if (issue >= C->ms[MS_STAGE_END] && advance_stage(C, issue)) {
                C->ms[MS_EVENTS]--;   /* re-counted when the access resumes */
                return RC_LATCH;
            }
            i64 si = addr & C->imask;
            i64 way = find_way(C, cid, si, addr);
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            i64 midx = cid * C->nsets + si;
            if (way >= 0) {
                touch_mru(C, cid, si, way);
                BUMP(sc, ss, SL_HITS, 1);
                if (is_write) C->line_meta[midx * C->assoc] |= 1;
                if (C->ms[MS_STAGE] == 0 || C->mon_group) {
                    i64 m = C->mon_mod[midx] + 1;
                    if (m == C->pthr) {
                        C->mon_mod[midx] = 0;
                        if (C->mon_val[midx] > 0) C->mon_val[midx]--;
                    } else C->mon_mod[midx] = m;
                }
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, addr, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    if (shadow_hit(C, cid, si, addr)) {
                        BUMP(sc, ss, SL_SHADOW_HITS, 1);
                        if (C->ms[MS_STAGE] == 0 || C->mon_group) {
                            if (C->mon_val[midx] < C->mon_max)
                                C->mon_val[midx]++;
                            i64 m = C->mon_mod[midx] + 1;
                            if (m == C->pthr) {
                                C->mon_mod[midx] = 0;
                                if (C->mon_val[midx] > 0) C->mon_val[midx]--;
                            } else C->mon_mod[midx] = m;
                        }
                    }
                    /* SnugIntraCache: a hosted copy in the core's own
                     * flipped giver set is a local hit. */
                    i64 iway = kind == 5 && C->flip_en &&
                               !C->gt[cid * C->nsets + (si ^ 1)]
                        ? hosted_way(C, cid, si ^ 1, addr) : -1;
                    if (iway >= 0) {
                        remove_way(C, cid, si ^ 1, iway);
                        BUMP(sc, ss, SL_INVALIDATIONS, 1);
                        stall = fill_dispose(C, cid, addr, is_write, issue);
                        BUMP(sc, ss, SL_INTRA_HITS, 1);
                        latency = C->lat_local + stall; okey = 0;
                    } else {
                        bus_snoop(C, issue);
                        i64 fidx = -1, fway = -1;
                        i64 fpeer = snug_retrieve(C, cid, si, addr, &fidx,
                                                  &fway);
                        if (fpeer >= 0) {
                            remove_way(C, fpeer, fidx, fway);
                            i64 *pc = C->slcnt + fpeer * NSL;
                            i64 *ps = C->slstamp + fpeer * NSL;
                            BUMP(pc, ps, SL_INVALIDATIONS, 1);
                            BUMP(pc, ps, SL_FORWARDS, 1);
                            i64 delay = bus_transfer(C, issue);
                            stall = fill_dispose(C, cid, addr, is_write,
                                                 issue);
                            BUMP(sc, ss, SL_REMOTE_HITS, 1);
                            latency = C->lat_snug + delay + stall; okey = 2;
                        } else {
                            latency = mem_fetch(C, addr, issue);
                            stall = fill_dispose(C, cid, addr, is_write,
                                                 issue);
                            BUMP(sc, ss, SL_DRAM_FETCHES, 1);
                            latency += stall; okey = 3;
                        }
                    }
                }
            }
        } else {                               /* ---- cc / dsr ---- */
            i64 set = addr & C->imask;
            i64 way = find_way(C, cid, set, addr);
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            if (way >= 0) {
                touch_mru(C, cid, set, way);
                BUMP(sc, ss, SL_HITS, 1);
                if (is_write)
                    C->line_meta[(cid * C->nsets + set) * C->assoc] |= 1;
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, addr, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    bus_snoop(C, issue);
                    i64 fpeer = -1, fway = -1;
                    i64 *pl = C->peers + cid * C->nper;
                    for (i64 j = 0; j < C->nper; j++) {
                        i64 w = find_way(C, pl[j], set, addr);
                        if (w >= 0) { fpeer = pl[j]; fway = w; break; }
                    }
                    if (fpeer >= 0) {
                        remove_way(C, fpeer, set, fway);
                        i64 *pc = C->slcnt + fpeer * NSL;
                        i64 *ps = C->slstamp + fpeer * NSL;
                        BUMP(pc, ps, SL_INVALIDATIONS, 1);
                        BUMP(pc, ps, SL_FORWARDS, 1);
                        i64 delay = bus_transfer(C, issue);
                        stall = fill_dispose(C, cid, addr, is_write, issue);
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
                        stall = fill_dispose(C, cid, addr, is_write, issue);
                        BUMP(sc, ss, SL_DRAM_FETCHES, 1);
                        latency += stall; okey = 3;
                    }
                }
            }
        }

        /* shared epilogue: trace stepping, windows, finish bookkeeping */
        C->c_instr[cid] += C->t_gap[off + pos];
        C->c_acc[cid]++;
        pos++;
        if (pos >= n) { pos = 0; C->c_wraps[cid]++; }
        C->c_pos[cid] = pos;
        C->out_c[okey]++;
        if (warmed && !was_done) {
            C->w_out[cid * 4 + okey]++;
            C->w_lat[cid] += latency;
        }
        i64 now2 = issue + C->l1_lat + latency;
        C->c_time[cid] = now2;
        if (!warmed && C->c_instr[cid] >= warmup) C->c_warm[cid] = now2;
        if (!was_done && C->c_warm[cid] >= 0 &&
            C->c_instr[cid] >= finish_at) {
            C->c_fin[cid] = now2;
            C->ms[MS_REMAINING]--;
        }
        C->keys[cid] = ((now2 + C->t_gapc[off + pos]) << C->cshift) | cid;
    }
    return RC_DONE;
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


def _fresh_structural(scheme, caches, kind: int) -> bool:
    """Whether all *structural* containers are empty (counters/scalars may
    be anything — they are encoded from the live objects)."""
    for cache in caches:
        for lruset in cache.sets:
            if lruset._addrs:
                return False
    for wbuf in scheme.wbufs:
        if wbuf._entries:
            return False
    if kind >= 4:
        for m in scheme.meta:
            for sh in m.shadows:
                if sh._tags:
                    return False
    return True


def decline_reason(system: CmpSystem, kind: int) -> Optional[str]:
    """Why the kernel cannot run *system* (scheme *kind*), or ``None``."""
    if _get_lib() is None:
        return f"C kernel unavailable ({reason()})"
    ncores = len(system.cores)
    if ncores > 64:
        return f"{ncores} cores exceed the C kernel's 64-core limit"
    if kind >= 2 and ncores < 2:
        return f"spill scheme {system.scheme.name!r} on a single core"
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
        pos, n, addrs = fed_pos[i], core._n, core.trace.addrs
        while count > 0:
            take = min(_MONITOR_SLICE, n - pos, count)
            monitor.observe_many(i, addrs[pos:pos + take])
            count -= take
            pos = (pos + take) % n
        fed_pos[i], fed_acc[i] = c_pos[i], c_acc[i]


def _slot_minima(ctx: _Ctx, offs: np.ndarray, rs: np.ndarray) -> Dict[str, int]:
    """The fewest elements the C side may touch through each slot, implied
    by the scalar inputs (plus ``offs`` for the trace columns and the ring
    fill levels in ``rs`` for the CC draw buffers)."""
    ncores, kind = ctx.ncores, ctx.kind
    sets = ncores * ctx.nsets
    lines = sets * ctx.assoc
    need = dict.fromkeys(_ALL_SLOTS, 1)
    need["offs"] = ncores + 1
    need["ms"] = len(_MS)
    need["rs"] = len(_RS)
    for name in ("t_addr", "t_gap", "t_gapc", "t_write"):
        need[name] = int(offs[ncores])
    for name in ("c_time", "c_pos", "c_instr", "c_wraps", "c_acc", "c_warm",
                 "c_fin", "keys", "wb_head", "wb_len", "wb_next", "w_lat"):
        need[name] = ncores
    need["line_addr"] = need["line_meta"] = lines
    need["occ"] = sets
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


def _bind_arrays(ctx: _Ctx, arrays: Dict[str, np.ndarray]) -> None:
    """Point each array member of *ctx* at its slot in *arrays*, after
    checking every slot at entry.

    The C side trusts each pointer blindly, so each slot must be
    C-contiguous, hold the element type the C side reads (``double`` for
    ``coin_buf``, ``int64_t`` elsewhere), and be at least as long as the
    scalar inputs imply (:func:`_slot_minima`).  A slot that is not raises
    :class:`SimulationError` naming it, before any C code runs.
    """

    def check(name: str, need: int) -> None:
        arr = arrays[name]
        dtype = np.float64 if name == "coin_buf" else np.int64
        if arr.dtype != dtype:
            raise SimulationError(
                f"C kernel slot {name!r}: dtype {arr.dtype}, the kernel "
                f"reads {np.dtype(dtype)}")
        if not arr.flags.c_contiguous:
            raise SimulationError(f"C kernel slot {name!r} is not C-contiguous")
        if arr.size < need:
            raise SimulationError(
                f"C kernel slot {name!r}: {arr.size} elements, the params "
                f"imply at least {need}")

    # The core count and the slots the minima are read from come first.
    if not 1 <= ctx.ncores <= 64:
        raise SimulationError(
            f"C kernel param 'ncores': {ctx.ncores} cores, the kernel takes 1-64")
    check("offs", ctx.ncores + 1)
    check("rs", len(_RS))
    need = _slot_minima(ctx, arrays["offs"], arrays["rs"])
    for name in _ALL_SLOTS:
        check(name, need[name])
        setattr(ctx, name, arrays[name].ctypes.data)


def run_kernel(system: CmpSystem, target: int, warmup: int, budget: int,
               kind: int) -> SimResult:
    """Run one simulation through the native kernel.

    The caller has checked :func:`decline_reason` and started the run
    (:meth:`CmpSystem._start_run`, which gives the event *budget*).  Raises
    the budget-exhausted error with the live objects fully merged, exactly
    like the other cores.
    """
    lib = _get_lib()
    from ..schemes.snug import STAGE_IDENTIFY, STAGE_GROUP  # local: no cycle

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

    # Trace columns: each core's NumPy columns, concatenated core by core.
    offs = np.zeros(ncores + 1, dtype=np.int64)
    np.cumsum([core._n for core in cores], out=offs[1:])
    t_addr = np.concatenate([core.trace.addrs for core in cores])
    t_gap = np.concatenate([core.trace.gaps for core in cores])
    t_gapc = np.concatenate([core.gap_cycles for core in cores])
    t_write = np.concatenate([core.trace.writes for core in cores],
                             dtype=np.int64)

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
    line_meta = np.zeros(ncores * num_sets * assoc, dtype=np.int64)
    occ = np.zeros(ncores * num_sets, dtype=np.int64)
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
        mon_val = np.array(
            [mc.counter.value for m in scheme.meta for mc in m.monitors],
            dtype=np.int64)
        mon_mod = np.array(
            [mc._mod for m in scheme.meta for mc in m.monitors],
            dtype=np.int64)
        if monitor is not None:
            ctx.monitored = 1
            gt_in = np.zeros(ncores * num_sets, dtype=np.int64)

    _bind_arrays(ctx, dict(
        offs=offs, t_addr=t_addr, t_gap=t_gap, t_gapc=t_gapc, t_write=t_write,
        c_time=c_time, c_pos=c_pos, c_instr=c_instr, c_wraps=c_wraps,
        c_acc=c_acc, c_warm=c_warm, c_fin=c_fin, keys=keys,
        line_addr=line_addr, line_meta=line_meta, occ=occ,
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

    # -- merge the SoA state back into the live objects ----------------------
    for i, core in enumerate(cores):
        core.time = int(c_time[i])
        core.pos = int(c_pos[i])
        core.instructions = int(c_instr[i])
        core.wraps = int(c_wraps[i])
        core.accesses = int(c_acc[i])
        core.warmup_end_time = int(c_warm[i]) if c_warm[i] >= 0 else None
        core.finish_time = int(c_fin[i]) if c_fin[i] >= 0 else None
    # Lines: line_meta packs dirty | cc << 1 | f << 2 | owner << 3.  Each
    # field becomes its own nested list of plain Python values, and each
    # set's lines are one map(CacheLine, ...) over its rows, which stops at
    # the shortest column: the set's `o` resident ways.
    shape = (ncores, num_sets, assoc)
    addr_l = line_addr.reshape(shape).tolist()
    dirty_l = (line_meta & 1).astype(bool).reshape(shape).tolist()
    cc_l = (line_meta & 2).astype(bool).reshape(shape).tolist()
    f_l = (line_meta & 4).astype(bool).reshape(shape).tolist()
    owner_l = (line_meta >> 3).reshape(shape).tolist()
    occ_l = occ.reshape(ncores, num_sets).tolist()
    for c, cache in enumerate(caches):
        lrusets = cache.sets
        addrs, dirty, cc, f = addr_l[c], dirty_l[c], cc_l[c], f_l[c]
        owner = owner_l[c]
        for s, o in enumerate(occ_l[c]):
            if o:
                row = addrs[s][:o]
                lruset = lrusets[s]
                lruset._lines = list(
                    map(CacheLine, row, dirty[s], cc[s], f[s], owner[s]))
                lruset._addrs = row
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
        sh_l = sh_addr.reshape(ncores, num_sets, assoc).tolist()
        shlen_l = sh_len.reshape(ncores, num_sets).tolist()
        gt_l = gt.reshape(ncores, num_sets).tolist()
        mv_l = mon_val.reshape(ncores, num_sets).tolist()
        mm_l = mon_mod.reshape(ncores, num_sets).tolist()
        for c, meta in enumerate(scheme.meta):
            meta.gt_taker[:] = [bool(v) for v in gt_l[c]]
            for s in range(num_sets):
                sl = shlen_l[c][s]
                if sl:
                    meta.shadows[s]._tags = sh_l[c][s][:sl]
                mc = meta.monitors[s]
                mc.counter.value = mv_l[c][s]
                mc._mod = mm_l[c][s]
        _merge_stamped(scheme.stats.counters, _RT_KEYS, rcnt, rstamp)

    if latch_error is not None:
        raise latch_error
    if rc == _RC.BUDGET:
        raise budget_exhausted_error(budget, cores, finish_at)

    final_now = max(core.time for core in cores)
    scheme.finalize(final_now)
    out_l = out_c.tolist()
    w_out_l = w_out.reshape(ncores, 4).tolist()
    okeys = _OUT_KEYS
    return SimResult(
        scheme=scheme.name,
        ipc=[core.ipc() for core in cores],
        instructions=[core.instructions for core in cores],
        cycles=[core.finish_time or core.time for core in cores],
        accesses=[core.accesses for core in cores],
        outcome_counts={okeys[i]: out_l[i] for i in range(4)},
        stats=scheme.flat_stats(),
        window_outcomes=[{okeys[i]: row[i] for i in range(4)} for row in w_out_l],
        window_latency=[int(x) for x in w_lat],
    )
