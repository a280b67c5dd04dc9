"""SNUG — Set-level Non-Uniformity identifier and Grouper (Section 3).

Per-slice state beyond a plain private L2:

* a **shadow tag set** per real set (same associativity, tags only) holding
  locally-evicted clean lines' tags, strictly exclusive with the real set;
* a per-set **demand monitor** (4-bit saturating counter + mod-p counter):
  +1 per shadow hit, −1 per ``p`` hits on the real/shadow pair;
* a per-set **G/T bit** (giver/taker) latched from the counter MSB at the
  end of each Stage I sampling epoch;
* per-line **CC** and **f** bits supporting the index-bit flipping grouper.

Operation alternates between two globally-synchronized stages (Figure 5):

* **Stage I (identify)** — ``identify_cycles`` long.  Demand monitors run;
  retrieval requests are honoured but *spill requests are refused*.  At the
  end, every set's G/T bit is latched and the counters reset.
* **Stage II (group)** — ``group_cycles`` long.  Taker sets spill their
  clean victims; peers host them in a same-index giver set (f=0) or, failing
  that, the giver set with the last index bit flipped (f=1); if both
  candidate sets are takers the peer stays silent (Figure 8).  Retrieval
  consults each peer's G/T vector at the two candidate indices, yielding at
  most one unambiguous probe per peer; the forwarding peer invalidates its
  hosted copy.

Epoch boundary hygiene: hosted cooperative blocks whose set
flips giver→taker would become unreachable under the G/T-gated lookup while
still occupying capacity; we invalidate them at the flip (``cc_flushed``),
preserving the "every on-chip block is reachable" invariant that the
property tests assert.

Online demand monitors
----------------------
Besides the hardware counters above, a slice's G/T classification can be
driven by an *attached monitor* (:meth:`SnugCache.attach_monitor`): an
object that observes every L2 reference during :meth:`CmpSystem.run
<repro.core.cmp.CmpSystem.run>` and supplies the per-set taker vectors at
each Stage-I latch.  :class:`OnlineDemandMonitor` streams each slice's
reference stream through a chunked stack-distance profiler
(:mod:`repro.cache.stackdist_stream`) and classifies sets by their Formula-3
``block_required`` — the Section 2 characterization running *alongside* the
simulation in bounded memory, instead of as a separate offline pass.
:class:`ScheduledGtMonitor` replays a precomputed (offline) classification
schedule; the integration suite pins the two paths to identical simulation
results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cache.block import CacheLine
from ..cache.satcounter import DemandMonitorCounter
from ..cache.shadowset import ShadowSet
from ..cache.stackdist_stream import StreamingProfiler
from ..common.config import SystemConfig
from ..common.errors import SimulationError
from .base import AccessResult, Outcome, PrivateL2Base

__all__ = [
    "SnugCache",
    "OnlineDemandMonitor",
    "ScheduledGtMonitor",
    "STAGE_IDENTIFY",
    "STAGE_GROUP",
]

STAGE_IDENTIFY = "identify"
STAGE_GROUP = "group"


class _SnugSlice:
    """Per-core SNUG metadata: shadow sets, monitors and the G/T vector."""

    __slots__ = ("shadows", "monitors", "gt_taker")

    def __init__(self, num_sets: int, assoc: int, counter_bits: int, p: int) -> None:
        self.shadows: List[ShadowSet] = [ShadowSet(assoc) for _ in range(num_sets)]
        self.monitors: List[DemandMonitorCounter] = [
            DemandMonitorCounter(counter_bits, p) for _ in range(num_sets)
        ]
        # All-giver before the first identification epoch completes: no set
        # has demonstrated demand yet, so nothing spills.
        self.gt_taker: List[bool] = [False] * num_sets


class OnlineDemandMonitor:
    """Streaming stack-distance demand monitor for one SNUG run.

    Each slice's observed reference stream is fed, in bounded chunks,
    through a caller-cut :class:`~repro.cache.stackdist_stream
    .StreamingProfiler`; at every Stage-I latch the open interval is cut and
    a set is classified **taker** iff its ``block_required`` (Formula 3 over
    the interval since the previous latch) exceeds *taker_demand* — i.e. the
    set demonstrably wants more ways than the baseline associativity gives
    it.  Memory is ``O(chunk + num_sets * depth)`` per slice regardless of
    run length: this is the Section 2 characterization running alongside the
    simulation, not a trace post-mortem.

    Parameters
    ----------
    num_cores, num_sets:
        Geometry of the monitored system.
    depth:
        Profiler stack depth (``A_threshold = 2 * assoc``, as in Section 2).
    taker_demand:
        Classification threshold: ``block_required > taker_demand`` marks a
        set taker.  The natural value is the baseline associativity.
    chunk_accesses:
        Buffered references per slice before a chunk is pushed into the
        profiler (bounds the monitor's memory).
    record_streams:
        Keep each epoch's raw per-slice reference streams *and* the
        per-latch demand history (test hook: lets the suite replay the
        exact observed streams through the offline profiler and pin
        online == offline).  Off by default — with it on, memory grows
        with run length, which is exactly what the monitor otherwise
        avoids.
    """

    def __init__(
        self,
        num_cores: int,
        num_sets: int,
        depth: int,
        taker_demand: int,
        chunk_accesses: int = 8192,
        record_streams: bool = False,
    ) -> None:
        if chunk_accesses < 1:
            raise ValueError("chunk_accesses must be positive")
        if taker_demand < 1:
            raise ValueError("taker_demand must be >= 1")
        self.num_cores = num_cores
        self.num_sets = num_sets
        self.depth = depth
        self.taker_demand = taker_demand
        self.chunk_accesses = chunk_accesses
        self.record_streams = record_streams
        self._profilers = [StreamingProfiler(num_sets, depth) for _ in range(num_cores)]
        self._buffers: List[List[int]] = [[] for _ in range(num_cores)]
        #: How many latches have occurred.
        self.latches = 0
        #: The most recent latch's per-core ``block_required`` vectors.
        self.last_demand: List[np.ndarray] = []
        #: Per-latch history of demand vectors (kept only with
        #: ``record_streams`` — it grows with run length).
        self.latched_demand: List[List[np.ndarray]] = []
        #: Per-latch history of the raw observed streams (record_streams).
        self.epoch_streams: List[List[List[int]]] = []
        self._open_streams: List[List[int]] = [[] for _ in range(num_cores)]

    @classmethod
    def from_config(cls, config: SystemConfig, **kwargs) -> "OnlineDemandMonitor":
        """A monitor shaped for *config*: depth ``A_threshold``, threshold
        ``A_baseline`` — the Section 2 parameters."""
        return cls(
            num_cores=config.num_cores,
            num_sets=config.l2.num_sets,
            depth=config.a_threshold,
            taker_demand=config.l2.assoc,
            **kwargs,
        )

    def observe(self, core: int, block_addr: int) -> None:
        """Record one L2 reference (called from the scheme's access path)."""
        buf = self._buffers[core]
        buf.append(block_addr)
        if len(buf) >= self.chunk_accesses:
            self._flush(core)

    def observe_many(self, core: int, block_addrs) -> None:
        """Record a run of L2 references in one call (compiled core).

        Equivalent to calling :meth:`observe` per address: the streaming
        profiler is chunk-boundary-invariant, so flushing a larger buffer
        once yields the same profile as flushing at every chunk crossing.
        """
        if len(block_addrs) == 0:
            return
        buf = self._buffers[core]
        if isinstance(block_addrs, np.ndarray):
            buf.extend(block_addrs.tolist())
        elif type(block_addrs) is list:
            buf.extend(block_addrs)
        else:
            buf.extend(int(a) for a in block_addrs)
        if len(buf) >= self.chunk_accesses:
            self._flush(core)

    def _flush(self, core: int) -> None:
        buf = self._buffers[core]
        if not buf:
            return
        self._profilers[core].feed(np.asarray(buf, dtype=np.int64))
        if self.record_streams:
            self._open_streams[core].extend(buf)
        buf.clear()

    def latch(self) -> List[np.ndarray]:
        """Close the epoch: per-core boolean taker vectors from demand."""
        vectors: List[np.ndarray] = []
        demands: List[np.ndarray] = []
        for core in range(self.num_cores):
            self._flush(core)
            demand = self._profilers[core].cut_block_required()
            demands.append(demand)
            vectors.append(demand > self.taker_demand)
        self.latches += 1
        self.last_demand = demands
        if self.record_streams:
            self.latched_demand.append(demands)
            self.epoch_streams.append(self._open_streams)
            self._open_streams = [[] for _ in range(self.num_cores)]
        return vectors


class ScheduledGtMonitor:
    """Replays a precomputed per-epoch G/T classification (the offline path).

    *schedule* is a sequence of latches, each a per-core sequence of per-set
    taker flags — typically derived from an offline
    :class:`~repro.cache.stackdist.StackDistanceProfiler` pass over the
    slices' reference streams.  Running out of schedule entries means the
    replayed run diverged from the run that produced them; that is a bug
    worth failing loudly over, not papering across.
    """

    def __init__(self, schedule: Sequence[Sequence[Sequence[bool]]]) -> None:
        self._schedule = list(schedule)
        self._next = 0

    def observe(self, core: int, block_addr: int) -> None:
        """No per-access state: the classification is already computed."""

    def observe_many(self, core: int, block_addrs) -> None:
        """No per-access state: the classification is already computed."""

    def latch(self) -> Sequence[Sequence[bool]]:
        if self._next >= len(self._schedule):
            raise SimulationError(
                f"G/T schedule exhausted after {self._next} latches: the "
                "replayed run requested more epochs than the schedule holds"
            )
        vectors = self._schedule[self._next]
        self._next += 1
        return vectors


class SnugCache(PrivateL2Base):
    """The SNUG L2 organization for a CMP of private slices."""

    name = "snug"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        snug = config.snug
        geo = config.l2
        self.snug_cfg = snug
        self.meta: List[_SnugSlice] = [
            _SnugSlice(geo.num_sets, geo.assoc, snug.counter_bits, snug.p_threshold)
            for _ in range(config.num_cores)
        ]
        self.stage = STAGE_IDENTIFY
        self._stage_end = snug.identify_cycles
        self.epoch = 0
        self._spill_rr = 0  # rotating bus-arbitration start for spills
        self.monitor = None  # optional attached demand monitor

    def attach_monitor(self, monitor) -> "SnugCache":
        """Drive G/T classification from *monitor* instead of the counters.

        *monitor* must provide ``observe(core, block_addr)`` (called for
        every L2 reference), its batched twin ``observe_many(core,
        block_addrs)`` (the compiled core hands over each core's references
        in runs) and ``latch() -> per-core taker vectors`` (called at each
        Stage-I boundary).  The hardware shadow sets and
        saturating counters keep running — their statistics stay comparable
        — but their MSBs no longer decide the G/T bits.  Returns ``self``
        so a scheme can be built and monitored in one expression.
        """
        self.monitor = monitor
        return self

    # -- stage machinery -----------------------------------------------------

    def _begin_access(self, core: int, block_addr: int, now: int) -> None:
        """Per-access preamble: stage transitions, then monitor observation.

        Ordered so that an access landing on an epoch boundary is charged to
        the *new* epoch — the latch it may have just triggered summarizes
        strictly earlier references.
        """
        if now >= self._stage_end:
            self._advance_stage(now)
        if self.monitor is not None:
            self.monitor.observe(core, block_addr)

    def _advance_stage(self, now: int) -> None:
        """Lazily apply stage transitions that *now* has crossed."""
        while now >= self._stage_end:
            if self.stage == STAGE_IDENTIFY:
                self._latch_gt_vectors()
                self.stage = STAGE_GROUP
                self._stage_end += self.snug_cfg.group_cycles
            else:
                self.stage = STAGE_IDENTIFY
                self.epoch += 1
                self._stage_end += self.snug_cfg.identify_cycles
                self.stats.add("epochs")

    def _latch_gt_vectors(self) -> None:
        """End of Stage I: latch the new G/T vectors, re-arm the counters.

        The taker bits come from the attached monitor when one is present
        (its ``latch()`` summarizes the references since the previous
        latch), from the hardware counters' MSBs otherwise.  The saturating
        counters are reset either way so their statistics stay epoch-scoped.
        """
        flush = self.snug_cfg.flush_on_flip_to_taker
        attached = self.monitor.latch() if self.monitor is not None else None
        for core, meta in enumerate(self.meta):
            takers = 0
            new_takers = (
                [m.is_taker for m in meta.monitors]
                if attached is None
                else attached[core]
            )
            for s, new_taker in enumerate(new_takers):
                new_taker = bool(new_taker)
                if new_taker and not meta.gt_taker[s] and flush:
                    self._flush_cc_in_set(core, s)
                meta.gt_taker[s] = new_taker
                takers += new_taker
                meta.monitors[s].reset()
            self._slice_stats[core].add("taker_sets_latched", takers)

    def _flush_cc_in_set(self, core: int, set_index: int) -> None:
        """Invalidate hosted cooperative blocks in a set flipping to taker."""
        slice_ = self.slices[core]
        doomed = [line for line in slice_.set_at(set_index) if line.cc]
        for line in doomed:
            slice_.remove_line(set_index, line)
            self._slice_stats[core].add("cc_flushed")

    # -- demand path -----------------------------------------------------------

    def _monitoring(self) -> bool:
        """Whether demand monitors sample at the current stage."""
        return self.stage == STAGE_IDENTIFY or self.snug_cfg.monitor_during_group

    def _on_local_hit(self, core: int, block_addr: int, now: int) -> None:
        if self.stage == STAGE_IDENTIFY or self.snug_cfg.monitor_during_group:
            self.meta[core].monitors[block_addr & self._set_mask].on_real_hit()

    def access(self, core: int, block_addr: int, is_write: bool, now: int) -> AccessResult:
        self._begin_access(core, block_addr, now)
        local = self._local_paths(core, block_addr, is_write, now)
        if local is not None:
            return local

        # Real-set miss: consult the shadow set (exclusivity maintained by
        # invalidating the shadow entry as the block re-enters the real set).
        set_index = block_addr & self._set_mask
        meta = self.meta[core]
        if meta.shadows[set_index].hit_and_invalidate(block_addr):
            self._slice_stats[core].add("shadow_hits")
            if self._monitoring():
                meta.monitors[set_index].on_shadow_hit()

        # Retrieval: G/T-vector-gated peer lookup (<= 1 probe per peer).
        self.bus.snoop(now)
        found = self._retrieve(core, block_addr, set_index)
        if found is not None:
            peer, host_index = found
            self.slices[peer].invalidate(block_addr, set_index=host_index)
            self._slice_stats[peer].add("forwards")
            delay = self.bus.transfer(now, self.config.l2.line_bytes)
            fill = CacheLine(addr=block_addr, dirty=is_write, owner=core)
            stall = self._refill(core, fill, now)
            self._slice_stats[core].add("remote_hits")
            return self._remote_result(
                self.config.latency.l2_remote_snug + delay + stall
            )

        latency = self._memory_fetch(block_addr, now)
        fill = CacheLine(addr=block_addr, dirty=is_write, owner=core)
        stall = self._refill(core, fill, now)
        self._slice_stats[core].add("dram_fetches")
        return self._mem_result(latency + stall)

    def _retrieve(
        self, core: int, block_addr: int, set_index: int
    ) -> Optional[Tuple[int, int]]:
        """Locate a hosted copy of *block_addr*; return ``(peer, set_index)``.

        Each peer inspects its G/T vector at ``set_index`` and at
        ``set_index ^ 1``; only giver sets can host, so only those are
        probed (Section 3.2's "at most one unambiguous search").
        """
        flipped = set_index ^ 1
        flip_enabled = self.snug_cfg.flip_enabled
        for peer in self.peers_of(core):
            gt = self.meta[peer].gt_taker
            peer_sets = self.slices[peer].sets
            if not gt[set_index]:
                line = peer_sets[set_index].probe(block_addr)
                if line is not None and line.cc:
                    return peer, set_index
            if flip_enabled and not gt[flipped]:
                line = peer_sets[flipped].probe(block_addr)
                if line is not None and line.cc:
                    return peer, flipped
        return None

    # -- eviction / spilling ------------------------------------------------------

    def _dispose_victim(self, core: int, victim: Optional[CacheLine], now: int) -> int:
        if victim is None:
            return 0
        if victim.cc:
            self._slice_stats[core].add("cc_evicted")
            return 0
        if victim.dirty:
            # Dirty victims go straight to the write buffer (Section 3.3);
            # they are *not* shadowed: the shadow tracks only clean victims
            # eligible for cooperative caching.
            return self._dispose_dirty(core, victim, now)
        set_index = victim.addr & self._set_mask
        self.meta[core].shadows[set_index].record_eviction(victim.addr)
        if self.stage == STAGE_GROUP and self.meta[core].gt_taker[set_index]:
            self._spill(core, victim, set_index, now)
        return 0

    def _spill(self, owner: int, victim: CacheLine, set_index: int, now: int) -> None:
        """Broadcast a spill request; the first responding peer hosts.

        Figure 8's three cases: a peer with a same-index giver responds in
        the first arbitration round (f=0); failing that, a peer whose
        flipped-index set is a giver responds (f=1); peers whose both
        candidate sets are takers stay silent.  The arbitration start
        rotates per spill, modelling a fair bus grant rather than always
        favouring the requester's nearest neighbour.
        """
        self.bus.snoop(now)
        flipped = self.amap.flipped_index(set_index)
        flip_enabled = self.snug_cfg.flip_enabled
        peers = self.peers_of(owner)
        self._spill_rr += 1
        start = self._spill_rr % len(peers)
        ordered = peers[start:] + peers[:start]
        candidate: Optional[Tuple[int, int, bool]] = None
        for peer in ordered:
            gt = self.meta[peer].gt_taker
            if not gt[set_index]:
                candidate = (peer, set_index, False)
                break
            if flip_enabled and not gt[flipped] and candidate is None:
                candidate = (peer, flipped, True)
        if candidate is not None:
            peer, host_index, f_bit = candidate
            self.bus.transfer(now, self.config.l2.line_bytes)
            hosted = CacheLine(
                addr=victim.addr, dirty=False, cc=True, f=f_bit, owner=victim.owner
            )
            host_victim = self.slices[peer].fill(hosted, set_index=host_index)
            self._slice_stats[owner].add("spills_out")
            self._slice_stats[peer].add("spills_hosted")
            if f_bit:
                self._slice_stats[peer].add("spills_hosted_flipped")
            if host_victim is not None:
                self._dispose_host_victim(peer, host_victim, host_index, now)
            return
        self._slice_stats[owner].add("spills_unplaced")

    def _dispose_host_victim(
        self, host: int, host_victim: CacheLine, host_index: int, now: int
    ) -> None:
        """Victim displaced by hosting a spill: never cascades another spill."""
        if host_victim.cc:
            self._slice_stats[host].add("cc_evicted")
            return
        if host_victim.dirty:
            self._dispose_dirty(host, host_victim, now)
            return
        # A clean local line displaced by a hosted block is still a local
        # eviction: the shadow set records it so the monitor can observe the
        # hosting pressure in the next Stage I.
        victim_set = self.amap.set_index(host_victim.addr)
        if victim_set == host_index:
            self.meta[host].shadows[victim_set].record_eviction(host_victim.addr)

    # -- inspection helpers (tests / reports) ------------------------------------

    def taker_fraction(self, core: int) -> float:
        """Fraction of sets currently marked taker in *core*'s G/T vector."""
        gt = self.meta[core].gt_taker
        return sum(gt) / len(gt)

    def finalize(self, now: int) -> None:
        self._advance_stage(now)
