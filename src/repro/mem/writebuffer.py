"""L2 write-back buffer (Table 4: FIFO, mergeable, 16 x 64 B, direct read).

The buffer decouples dirty evictions from DRAM: the evicting cache deposits
the victim and continues; entries retire to DRAM one per ``drain_cycles``.
Two behaviours from the paper/Skadron & Clark are modelled:

* **merging** — a write to a block already buffered refreshes that entry
  instead of allocating a new one;
* **direct read** — a demand access that hits a buffered block is serviced
  from the buffer (we charge the local L2 latency for it), and the entry is
  pulled back rather than travelling to DRAM and back.

If the buffer is full the depositing cache stalls until the head entry
retires; the stall cycles are returned to the caller for timing.
"""

from __future__ import annotations

from collections import OrderedDict

from ..common.config import WriteBufferConfig
from ..common.stats import StatGroup

__all__ = ["WriteBackBuffer"]


class WriteBackBuffer:
    """Mergeable FIFO write-back buffer with direct read support."""

    def __init__(
        self,
        config: WriteBufferConfig | None = None,
        stats: StatGroup | None = None,
    ) -> None:
        self.config = config or WriteBufferConfig()
        self.stats = stats if stats is not None else StatGroup("wbuf")
        # block_addr -> deposit time; insertion order == FIFO order.
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self._next_drain_at = 0
        # Hot-path caches (try_read runs on every L2 miss).
        self._direct_read = self.config.direct_read
        self._drain_cycles = self.config.drain_cycles

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._entries

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.config.entries

    def _drain_until(self, now: int) -> None:
        """Retire every entry whose drain slot has passed by *now*."""
        while self._entries and self._next_drain_at <= now:
            self._entries.popitem(last=False)
            self.stats.add("drained")
            self._next_drain_at += self._drain_cycles

    def deposit(self, block_addr: int, now: int) -> int:
        """Deposit a dirty victim at time *now*; return stall cycles (0 if none)."""
        self._drain_until(now)
        if block_addr in self._entries:
            # Merge: refresh the existing entry in place (keeps FIFO slot).
            self._entries[block_addr] = now
            self.stats.add("merged")
            return 0
        stall = 0
        if self.full:
            # Wait for the head entry's drain slot.
            wait_until = max(self._next_drain_at, now)
            stall = wait_until - now
            self._entries.popitem(last=False)
            self.stats.add("drained")
            self.stats.add("full_stalls")
            self.stats.add("stall_cycles", stall)
            self._next_drain_at = wait_until + self.config.drain_cycles
        elif not self._entries:
            # First entry after an idle period starts a fresh drain clock.
            self._next_drain_at = now + self.config.drain_cycles
        self._entries[block_addr] = now
        self.stats.add("deposits")
        return stall

    def try_read(self, block_addr: int, now: int) -> bool:
        """Attempt a direct read; on hit the entry is recalled (removed)."""
        if not self._direct_read:
            return False
        entries = self._entries
        if entries and self._next_drain_at <= now:
            self._drain_until(now)
        if block_addr in entries:
            del self._entries[block_addr]
            self.stats.add("direct_reads")
            return True
        return False

    def reset(self) -> None:
        self._entries.clear()
        self._next_drain_at = 0
        self.stats.reset()
