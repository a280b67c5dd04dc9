"""CC — eviction-driven Cooperative Caching (Chang & Sohi, ISCA'06).

On every eviction of a *clean, locally-owned* line, the evicting cache spills
the line to a peer with probability ``spill_probability``; the host places it
in its same-index set, marked CC, with 1-chance forwarding (a spilled line
evicted again at the host is dropped, never re-spilled).  On a local miss the
requester snoops the bus; the peer holding the CC copy forwards it and
invalidates its copy (Section 3.3's coherence rules).

The paper evaluates **CC(Best)** — the best of spill probabilities
{0, 25, 50, 75, 100}% per workload — which the experiment engine implements
by sweeping this scheme, one task per probability, and keeping the best
(:func:`repro.experiments.runner.select_cc_best`).

This scheme is *demand-blind*: a streaming application spills as
enthusiastically as a capacity-starved one, which is precisely the weakness
(Section 1) that DSR and SNUG address.
"""

from __future__ import annotations

from typing import Optional

from ..cache.block import CacheLine
from ..common.config import SystemConfig
from .base import AccessResult, Outcome, PrivateL2Base

__all__ = ["CooperativeCaching"]


class CooperativeCaching(PrivateL2Base):
    """Probabilistic eviction-driven spilling between private slices."""

    name = "cc"

    def __init__(self, config: SystemConfig, spill_probability: Optional[float] = None) -> None:
        super().__init__(config)
        self.spill_probability = (
            config.cc.spill_probability if spill_probability is None else float(spill_probability)
        )
        if not 0.0 <= self.spill_probability <= 1.0:
            raise ValueError("spill probability must be in [0, 1]")
        self._coin = self.rngf.stream("cc", "spill_coin")
        self._peer_pick = self.rngf.stream("cc", "peer_pick")

    # -- demand path -------------------------------------------------------

    def access(self, core: int, block_addr: int, is_write: bool, now: int) -> AccessResult:
        local = self._local_paths(core, block_addr, is_write, now)
        if local is not None:
            return local
        # Retrieval: snoop peers for a cooperatively cached copy.
        self.bus.snoop(now)
        for peer in self.peers_of(core):
            line = self.slices[peer].probe(block_addr)
            if line is not None:
                self.slices[peer].invalidate(block_addr)
                self._slice_stats[peer].add("forwards")
                delay = self.bus.transfer(now, self.config.l2.line_bytes)
                fill = CacheLine(addr=block_addr, dirty=is_write, owner=core)
                stall = self._refill(core, fill, now)
                self._slice_stats[core].add("remote_hits")
                return self._remote_result(
                    self.config.latency.l2_remote + delay + stall
                )
        latency = self._memory_fetch(block_addr, now)
        fill = CacheLine(addr=block_addr, dirty=is_write, owner=core)
        stall = self._refill(core, fill, now)
        self._slice_stats[core].add("dram_fetches")
        return self._mem_result(latency + stall)

    # -- spilling -----------------------------------------------------------

    def _dispose_victim(self, core: int, victim: Optional[CacheLine], now: int) -> int:
        if victim is None:
            return 0
        if victim.cc:
            # 1-chance forwarding: a hosted block dies on its second eviction.
            self._slice_stats[core].add("cc_evicted")
            return 0
        if victim.dirty:
            return self._dispose_dirty(core, victim, now)
        if self.spill_probability > 0.0 and (
            self.spill_probability >= 1.0 or self._coin.random() < self.spill_probability
        ):
            self._spill(core, victim, now)
        return 0

    def _spill(self, owner: int, victim: CacheLine, now: int) -> None:
        """Spill *victim* to a uniformly chosen peer's same-index set."""
        peers = self.peers_of(owner)
        host = peers[int(self._peer_pick.integers(0, len(peers)))]
        self.bus.snoop(now)
        self.bus.transfer(now, self.config.l2.line_bytes)
        hosted = CacheLine(addr=victim.addr, dirty=False, cc=True, owner=victim.owner)
        host_victim = self.slices[host].fill(hosted)
        self._slice_stats[owner].add("spills_out")
        self._slice_stats[host].add("spills_hosted")
        # The host's own victim is disposed *without* cascading spills
        # (1-chance forwarding applies transitively to spill-induced
        # evictions; only demand-fill evictions trigger spills).
        if host_victim is not None:
            if host_victim.cc:
                self._slice_stats[host].add("cc_evicted")
            elif host_victim.dirty:
                self._dispose_dirty(host, host_victim, now)
