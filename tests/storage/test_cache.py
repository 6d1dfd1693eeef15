"""The generic LRU cache every read-path layer builds on."""

from __future__ import annotations

import threading

import pytest

from repro.storage.cache import CacheStats, LRUCache


class TestBasics:
    def test_get_put_and_lru_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a is now MRU
        cache.put("c", 3)  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_refreshes_value_and_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh: a becomes MRU
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        assert not cache.enabled
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_zero_capacity_put_still_fires_eviction_callback(self):
        # the write-back pager's degenerate write-through path
        evicted = []
        cache = LRUCache(0, on_evict=lambda k, v: evicted.append((k, v)))
        cache.put("a", 1)
        assert evicted == [("a", 1)]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)
        with pytest.raises(ValueError):
            LRUCache(4).resize(-2)

    def test_peek_touches_nothing(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("absent", "dflt") == "dflt"
        assert cache.stats.accesses == 0
        cache.put("c", 3)  # peek did not promote a, so a is evicted
        assert "a" not in cache

    def test_cached_none_is_distinguishable(self):
        cache = LRUCache(2)
        cache.put("k", None)
        sentinel = object()
        assert cache.get("k", sentinel) is None
        assert cache.get("absent", sentinel) is sentinel

    def test_keys_in_eviction_order(self):
        cache = LRUCache(3)
        for k in "abc":
            cache.put(k, k)
        cache.get("a")
        assert cache.keys() == ["b", "c", "a"]


class TestPinning:
    def test_pinned_entries_survive_pressure(self):
        cache = LRUCache(1)
        cache.put("pinned", 1)
        cache.pin("pinned")
        cache.put("x", 2)  # over capacity; pinned is skipped, x evicted
        assert cache.get("pinned") == 1
        assert "x" not in cache

    def test_unpin_restores_bound(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.pin("a")
        cache.put("b", 2)
        cache.unpin("a")  # bound re-applied: LRU (a) goes
        assert len(cache) == 1

    def test_unpin_all(self):
        cache = LRUCache(1)
        for k in "abc":
            cache.pin(k)  # pins are advisory on absent keys
            cache.put(k, k)
        assert len(cache) == 3
        cache.unpin_all()
        assert len(cache) == 1
        assert cache.pinned_count == 0

    def test_invalidate_drops_pinned(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.pin("a")
        assert cache.invalidate("a") is True
        assert "a" not in cache
        assert cache.pinned_count == 0


class TestRemoval:
    def test_invalidate_counts_and_reports(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.stats.invalidations == 1

    def test_invalidate_skips_eviction_callback(self):
        evicted = []
        cache = LRUCache(2, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1)
        cache.invalidate("a")
        cache.put("b", 2)
        cache.clear()
        assert evicted == []

    def test_clear(self):
        cache = LRUCache(4)
        for k in "abc":
            cache.put(k, k)
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.stats.invalidations == 3

    def test_resize_shrink_evicts_lru_first(self):
        evicted = []
        cache = LRUCache(3, on_evict=lambda k, v: evicted.append(k))
        for k in "abc":
            cache.put(k, k)
        cache.resize(1)
        assert evicted == ["a", "b"]
        assert cache.keys() == ["c"]


class TestStats:
    def test_hit_miss_accounting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.accesses == 2
        assert cache.stats.hit_rate == 0.5

    def test_snapshot_shape_is_mergeable(self):
        from repro.cluster.stats import merge_counter_dicts

        a, b = CacheStats(hits=1, misses=2), CacheStats(hits=3, evictions=1)
        merged = merge_counter_dicts([a.snapshot(), b.snapshot()])
        assert merged["hits"] == 4
        assert merged["misses"] == 2
        assert merged["evictions"] == 1

    def test_reset(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("b")
        cache.stats.reset()
        assert cache.stats.snapshot() == dict.fromkeys(
            ("hits", "misses", "insertions", "evictions", "invalidations"), 0
        )


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = LRUCache(32)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(400):
                    k = (seed * 7 + i) % 64
                    if i % 5 == 0:
                        cache.invalidate(k)
                    else:
                        cache.put(k, (seed, i))
                        cache.get(k)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 32
        assert cache.stats.accesses > 0
