"""Unit tests for repro.cache.cache (SetAssocCache)."""

import copy
import pickle
from functools import partial

import pytest

from repro.cache.block import CacheLine
from repro.cache.cache import SetAssocCache
from repro.cache.lruset import LruSet
from repro.common.config import CacheGeometry


def small_cache():
    # 4 KB, 4-way, 64 B lines -> 16 sets.
    return SetAssocCache(CacheGeometry(size_bytes=4 << 10, assoc=4, line_bytes=64), "t")


class TestLookupFill:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(5) is None
        c.fill(CacheLine(addr=5))
        assert c.lookup(5) is not None
        assert c.stats.get("hits") == 1
        assert c.stats.get("misses") == 1

    def test_fill_evicts_lru_within_set(self):
        c = small_cache()
        base = 0
        for i in range(4):
            c.fill(CacheLine(addr=base + 16 * i))  # all set 0
        victim = c.fill(CacheLine(addr=base + 16 * 4))
        assert victim is not None
        assert victim.addr == 0

    def test_sets_are_independent(self):
        c = small_cache()
        for i in range(5):
            c.fill(CacheLine(addr=16 * i))  # set 0 x5 -> one eviction
        assert c.lookup(1) is None  # set 1 untouched
        assert c.occupancy() == 4

    def test_probe_does_not_touch(self):
        c = small_cache()
        for i in range(4):
            c.fill(CacheLine(addr=16 * i))
        c.probe(0)  # LRU stays LRU
        victim = c.fill(CacheLine(addr=16 * 4))
        assert victim.addr == 0

    def test_set_index_override(self):
        """Flipped-index placement: line lives in a set its index doesn't name."""
        c = small_cache()
        line = CacheLine(addr=2, cc=True, f=True)  # home set 2
        c.fill(line, set_index=3)
        assert c.probe(2) is None  # not in home set
        assert c.probe(2, set_index=3) is line
        assert c.invalidate(2, set_index=3) is line


class TestInvalidate:
    def test_invalidate_counts(self):
        c = small_cache()
        c.fill(CacheLine(addr=7))
        assert c.invalidate(7) is not None
        assert c.stats.get("invalidations") == 1
        assert c.invalidate(7) is None

    def test_clear(self):
        c = small_cache()
        c.fill(CacheLine(addr=1))
        c.clear()
        assert c.occupancy() == 0


class TestOccupancy:
    def test_cc_occupancy(self):
        c = small_cache()
        c.fill(CacheLine(addr=1))
        c.fill(CacheLine(addr=2, cc=True))
        assert c.occupancy() == 2
        assert c.cc_occupancy() == 1

    def test_resident_iterates_all(self):
        c = small_cache()
        for a in (1, 2, 35):
            c.fill(CacheLine(addr=a))
        assert sorted(l.addr for l in c.resident()) == [1, 2, 35]


def _fill_dirty(addr, calls):
    """A picklable deferred fill: one dirty line at *addr*'s home set."""
    calls.append(addr)
    sets = small_cache().sets
    sets[addr & 15].insert(CacheLine(addr=addr, dirty=True))
    return sets


class TestDeferredSets:
    """``defer_sets`` leaves ``sets`` unbuilt until its first read, and a
    new cache starts that way, with no sets built."""

    def deferred(self, calls):
        c = small_cache()
        c.defer_sets(partial(_fill_dirty, 5, calls))
        return c

    def test_first_read_fills_once_and_restores_a_plain_cache(self):
        calls = []
        c = self.deferred(calls)
        assert "sets" not in c.__dict__ and calls == []
        assert c.lookup(5).dirty
        assert calls == [5]
        assert type(c) is SetAssocCache and "sets" in c.__dict__
        assert c.occupancy() == 1 and calls == [5]

    def test_unknown_attribute_still_raises(self):
        c = self.deferred([])
        with pytest.raises(AttributeError, match="no_such"):
            c.no_such
        assert "sets" not in c.__dict__

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_build_the_same_lines(self, clone):
        c = self.deferred([])
        twin = clone(c)
        assert [line.addr for line in twin.resident()] == [5]
        assert [line.addr for line in c.resident()] == [5]

    def test_new_cache_builds_no_set_until_read(self, monkeypatch):
        built = []
        init = LruSet.__init__

        def counting_init(lruset, assoc):
            built.append(assoc)
            init(lruset, assoc)

        monkeypatch.setattr(LruSet, "__init__", counting_init)
        c = small_cache()
        assert built == [] and "sets" not in c.__dict__
        assert c.probe(5) is None
        assert built == [4] * 16 and type(c) is SetAssocCache
        assert c.occupancy() == 0 and len(built) == 16

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_of_a_new_cache_build_empty_sets(self, clone):
        twin = clone(small_cache())
        assert "sets" not in twin.__dict__
        assert len(twin.sets) == 16 and twin.occupancy() == 0
        assert type(twin) is SetAssocCache
