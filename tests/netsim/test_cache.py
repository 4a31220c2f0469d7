"""Unit tests for the bounded LRU cache behind the simulation caches
and the solver memos."""

import pytest

from repro.errors import ReproError
from repro.cache import LruCache


class TestLruCache:
    def test_get_put_roundtrip_and_counters(self):
        cache = LruCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.counters() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
        }

    def test_eviction_drops_least_recently_used(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_refreshes_recency_without_evicting(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: nothing evicted
        assert cache.evictions == 0
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_zero_capacity_is_unbounded(self):
        cache = LruCache(capacity=0)
        for index in range(1000):
            cache.put(index, index)
        assert len(cache) == 1000
        assert cache.evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ReproError):
            LruCache(capacity=-1)

    def test_clear_preserves_counters(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1 and cache.misses == 1

    def test_contains_does_not_touch_recency_or_counters(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # must NOT refresh "a"
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", 3)
        assert "a" not in cache  # "a" was still the LRU entry



class TestLruCacheEdgeCases:
    def test_capacity_zero_never_evicts_and_counts(self):
        cache = LruCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.counters() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
        }

    def test_capacity_one_keeps_exactly_the_last_entry(self):
        cache = LruCache(capacity=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" not in cache
        assert cache.get("b") == 2
        assert len(cache) == 1
        assert cache.evictions == 1
        cache.put("b", 20)  # refresh in place: full but nothing to evict
        assert cache.evictions == 1
        assert cache.get("b") == 20

    def test_reinsert_after_eviction_is_a_fresh_entry(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache
        assert cache.get("a") is None  # one honest miss
        cache.put("a", 10)  # re-insert: evicts "b", the current LRU
        assert cache.get("a") == 10
        assert "b" not in cache
        assert cache.evictions == 2

    def test_hits_plus_misses_equals_lookups(self):
        cache = LruCache(capacity=3)
        lookups = 0
        for index in range(20):
            cache.put(index % 5, index)
            for key in (index % 5, index % 7, "never-inserted"):
                cache.get(key)
                lookups += 1
        assert cache.hits + cache.misses == lookups
        assert cache.hits > 0 and cache.misses > 0


class TestLruCacheCounterInvariants:
    """``__contains__`` is accounting-neutral: only get() counts."""

    def test_contains_counts_nothing(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert cache.hits == 0 and cache.misses == 0
