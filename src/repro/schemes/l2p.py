"""L2P — the private-L2 baseline (Section 1 / Table 4).

Each core owns one slice; there is no capacity sharing of any kind.  Every
metric in the paper (Figures 9–11) is normalized to this organization.
"""

from __future__ import annotations

from ..cache.block import CacheLine
from ..common.config import SystemConfig
from .base import AccessResult, Outcome, PrivateL2Base

__all__ = ["PrivateL2"]


class PrivateL2(PrivateL2Base):
    """Strictly private per-core L2 slices."""

    name = "l2p"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)

    def access(self, core: int, block_addr: int, is_write: bool, now: int) -> AccessResult:
        local = self._local_paths(core, block_addr, is_write, now)
        if local is not None:
            return local
        latency = self._memory_fetch(block_addr, now)
        fill = CacheLine(addr=block_addr, dirty=is_write, owner=core)
        stall = self._refill(core, fill, now)
        self._slice_stats[core].add("dram_fetches")
        return self._mem_result(latency + stall)
