"""Unit tests for repro.cache.lruset."""

import pytest

from repro.cache.block import CacheLine
from repro.cache.lruset import LruSet


def fill(lruset, addrs):
    for a in addrs:
        lruset.insert(CacheLine(addr=a))


class TestBasics:
    def test_empty(self):
        s = LruSet(4)
        assert len(s) == 0
        assert not s.full
        assert s.probe(1) is None

    def test_bad_assoc(self):
        with pytest.raises(ValueError):
            LruSet(0)

    def test_insert_until_full(self):
        s = LruSet(2)
        assert s.insert(CacheLine(addr=1)) is None
        assert s.insert(CacheLine(addr=2)) is None
        assert s.full
        victim = s.insert(CacheLine(addr=3))
        assert victim is not None and victim.addr == 1  # LRU evicted


class TestLruOrder:
    def test_touch_moves_to_mru(self):
        s = LruSet(3)
        fill(s, [1, 2, 3])  # MRU order: 3,2,1
        assert s.addrs() == [3, 2, 1]
        s.touch(1)
        assert s.addrs() == [1, 3, 2]

    def test_miss_returns_none(self):
        s = LruSet(2)
        assert s.touch(42) is None

    def test_victim_is_least_recent(self):
        s = LruSet(3)
        fill(s, [1, 2, 3])
        s.touch(1)  # 2 is now LRU
        victim = s.insert(CacheLine(addr=4))
        assert victim.addr == 2


class TestInvalidate:
    def test_invalidate_removes(self):
        s = LruSet(3)
        fill(s, [1, 2])
        line = s.invalidate(1)
        assert line.addr == 1
        assert s.probe(1) is None
        assert len(s) == 1

    def test_invalidate_absent(self):
        s = LruSet(2)
        assert s.invalidate(9) is None


class TestFindVictim:
    def test_remove_specific(self):
        s = LruSet(2)
        line = CacheLine(addr=9)
        s.insert(line)
        s.remove(line)
        assert len(s) == 0
