"""L2S — the shared, address-interleaved L2 organization (Section 1).

The aggregate LLC capacity (``num_cores x slice``) is one logical cache
physically split into per-core banks; consecutive block addresses interleave
across banks.  A core enjoys the full aggregate capacity but pays the NUCA
remote latency whenever the home bank is not its local one — the fundamental
L2S trade-off the paper describes.

Bank mapping: ``bank = block_addr & (num_banks - 1)``; the remaining bits
form the bank-local block address used for indexing within the bank.
"""

from __future__ import annotations

from typing import List

from ..cache.block import CacheLine
from ..cache.cache import SetAssocCache
from ..common.bitops import log2_exact
from ..common.config import SystemConfig
from ..mem.writebuffer import WriteBackBuffer
from .base import AccessResult, L2Scheme, Outcome

__all__ = ["SharedL2"]


class SharedL2(L2Scheme):
    """Address-interleaved shared L2 with NUCA latencies."""

    name = "l2s"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        n = config.num_cores
        self.num_banks = n
        self._bank_bits = log2_exact(n, what="num_cores")
        self.banks: List[SetAssocCache] = [
            SetAssocCache(config.l2, f"bank_{i}", self.stats.child(f"bank_{i}")) for i in range(n)
        ]
        self.wbufs: List[WriteBackBuffer] = [
            WriteBackBuffer(config.write_buffer, self.stats.child(f"wbuf_{i}")) for i in range(n)
        ]
        # Hot-path cache of the per-bank stat groups (same objects as the
        # banks'): stats.child() costs an f-string plus a dict probe per call.
        self._bank_stats = [self.stats.child(f"bank_{i}") for i in range(n)]
        lat = config.latency
        self._lat_local, self._lat_remote = lat.l2_local, lat.l2_remote
        # Hits carry a fixed latency per locality; share the frozen results.
        self._local_hit = AccessResult(lat.l2_local, Outcome.LOCAL_HIT)
        self._remote_hit = AccessResult(lat.l2_remote, Outcome.REMOTE_HIT)

    def _route(self, block_addr: int) -> tuple[int, int]:
        """Return ``(bank, bank_local_block_addr)`` for a block address."""
        bank = block_addr & (self.num_banks - 1)
        return bank, block_addr >> self._bank_bits

    def access(self, core: int, block_addr: int, is_write: bool, now: int) -> AccessResult:
        bank = block_addr & (self.num_banks - 1)
        local_addr = block_addr >> self._bank_bits
        if bank == core:
            base, hit_result = self._lat_local, self._local_hit
        else:
            base, hit_result = self._lat_remote, self._remote_hit
            self.bus.snoop(now)
        bank_cache = self.banks[bank]
        line = bank_cache.sets[local_addr & bank_cache._index_mask].touch(local_addr)
        if line is not None:
            bank_cache._counters["hits"] += 1
            if is_write:
                line.dirty = True
            return hit_result
        bank_cache._counters["misses"] += 1
        wbuf = self.wbufs[bank]
        if wbuf._entries and wbuf.try_read(local_addr, now):
            stall = self._fill(bank, local_addr, dirty=True, owner=core, now=now)
            return self._wbuf_result(base + stall)
        latency = self._memory_fetch(block_addr, now)
        stall = self._fill(bank, local_addr, dirty=is_write, owner=core, now=now)
        self._bank_stats[bank].add("dram_fetches")
        return self._mem_result(base + latency + stall)

    def _fill(self, bank: int, local_addr: int, *, dirty: bool, owner: int, now: int) -> int:
        victim = self.banks[bank].fill(CacheLine(addr=local_addr, dirty=dirty, owner=owner))
        if victim is not None and victim.dirty:
            self._bank_stats[bank].add("writebacks")
            return self.wbufs[bank].deposit(victim.addr, now)
        return 0
