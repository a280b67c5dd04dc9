"""A true-LRU set of cache lines.

The set is the unit the whole paper reasons about, so this class is the
workhorse of the simulator.  Lines are kept in an MRU-first list: list
position ``i`` (0-based) is **LRU position** ``i + 1`` in the paper's
1-based terminology (Section 2.1.1).  Per-position hit counts come from the
stack-distance profiler (:mod:`repro.cache.stackdist_stream`), not from
this class.

Design notes
------------
* Associativity is small (16 in Table 4), so O(A) scans beat any fancier
  structure in CPython.  The scan itself runs in C: a parallel MRU-ordered
  list of block addresses (``_addrs``) mirrors the line list, so membership
  tests are ``list.index`` on plain ints instead of a Python-level loop
  over ``line.addr`` attribute reads — the single hottest operation in the
  simulator.  ``CacheLine.addr`` is never mutated after construction, which
  keeps the mirror trivially consistent.
* Victim selection is strict LRU over resident lines (CC blocks age
  normally, as in the paper).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .block import CacheLine

__all__ = ["LruSet"]


class LruSet:
    """One set of a set-associative cache under true LRU replacement."""

    __slots__ = ("assoc", "_lines", "_addrs")

    def __init__(self, assoc: int) -> None:
        if assoc < 1:
            raise ValueError("associativity must be >= 1")
        self.assoc = assoc
        self._lines: List[CacheLine] = []
        self._addrs: List[int] = []  # MRU-ordered mirror of _lines[i].addr

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[CacheLine]:
        return iter(self._lines)

    @property
    def full(self) -> bool:
        return len(self._lines) >= self.assoc

    def probe(self, addr: int) -> Optional[CacheLine]:
        """Return the resident line for *addr* without updating recency."""
        # `in` before `index`: misses dominate probes, and a C-level scan is
        # an order of magnitude cheaper than raising/catching ValueError.
        addrs = self._addrs
        if addr in addrs:
            return self._lines[addrs.index(addr)]
        return None

    # -- mutations ---------------------------------------------------------

    def touch(self, addr: int) -> Optional[CacheLine]:
        """Look up *addr*; on hit move it to MRU and return the line.

        Returns ``None`` on miss.
        """
        addrs = self._addrs
        if addr not in addrs:
            return None
        i = addrs.index(addr)
        lines = self._lines
        line = lines[i]
        if i:
            del lines[i]
            lines.insert(0, line)
            del addrs[i]
            addrs.insert(0, addr)
        return line

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        """Insert *line* at MRU; return the evicted LRU line if the set was full."""
        victim: Optional[CacheLine] = None
        if len(self._lines) >= self.assoc:
            victim = self._lines.pop()
            self._addrs.pop()
        self._lines.insert(0, line)
        self._addrs.insert(0, line.addr)
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove and return the line for *addr*, or ``None`` if absent."""
        if addr not in self._addrs:
            return None
        i = self._addrs.index(addr)
        line = self._lines[i]
        del self._lines[i]
        del self._addrs[i]
        return line

    def remove(self, line: CacheLine) -> None:
        """Remove a specific line object (must be resident)."""
        i = self._lines.index(line)
        del self._lines[i]
        del self._addrs[i]

    def clear(self) -> None:
        self._lines.clear()
        self._addrs.clear()

    def addrs(self) -> List[int]:
        """Resident block addresses, MRU first (for tests/debugging)."""
        return list(self._addrs)
