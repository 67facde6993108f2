"""Unit tests for the leaf-label cache and the cache-fronted lookup.

Covers the LRU mechanics, the prefix-scan covering lookup, the split and
merge hooks, staleness recovery when *another* writer mutates the shared
index, and the failure discipline: a typed substrate error (including an
open circuit breaker) must propagate without evicting or poisoning
cache entries.
"""

from __future__ import annotations

import pytest

from repro.cache import LeafCache, cached_lookup
from repro.core import IndexConfig, IndexInspector, LHTIndex
from repro.core.label import Label, ROOT
from repro.dht import LocalDHT
from repro.errors import CircuitOpenError, ConfigurationError, DHTError
from repro.resilience import CircuitBreaker, ResilientDHT, RetryPolicy


def _labels(cache: LeafCache) -> list[str]:
    return [str(label) for label in cache.labels()]


def _live_leaves(index: LHTIndex) -> set[str]:
    return {
        str(b.label) for b in IndexInspector(index.dht).buckets().values()
    }


class TestLeafCache:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            LeafCache(0)
        with pytest.raises(ConfigurationError):
            LeafCache(-3)

    def test_store_and_covering_lookup(self):
        cache = LeafCache(8)
        cache.store(Label("000"))  # [0, 0.25)
        cache.store(Label("001"))  # [0.25, 0.5)
        assert cache.lookup(0.1, 20) == Label("000")
        assert cache.lookup(0.3, 20) == Label("001")
        assert cache.lookup(0.9, 20) is None  # right half not cached
        assert len(cache) == 2

    def test_lookup_prefers_shortest_covering_prefix(self):
        # Labels form an antichain in a consistent snapshot, but after
        # remote churn an ancestor and a descendant can coexist; the scan
        # returns the shortest (the ancestor), which validation resolves.
        cache = LeafCache(8)
        cache.store(Label("000"))
        cache.store(ROOT)
        assert cache.lookup(0.05, 20) == ROOT

    def test_lru_eviction_order(self):
        cache = LeafCache(2)
        cache.store(Label("000"))
        cache.store(Label("001"))
        assert cache.lookup(0.1, 20) == Label("000")  # 001 is now LRU
        cache.store(Label("010"))
        assert Label("001") not in cache
        assert Label("000") in cache and Label("010") in cache
        assert len(cache) == 2

    def test_store_existing_refreshes_recency(self):
        cache = LeafCache(2)
        cache.store(Label("000"))
        cache.store(Label("001"))
        cache.store(Label("000"))  # refresh, not duplicate
        assert len(cache) == 2
        cache.store(Label("010"))
        assert Label("001") not in cache and Label("000") in cache

    def test_invalidate_and_clear(self):
        cache = LeafCache(4)
        cache.store(Label("000"))
        assert cache.invalidate(Label("000")) is True
        assert cache.invalidate(Label("000")) is False
        cache.store(Label("001"))
        cache.clear()
        assert len(cache) == 0

    def test_split_hook_keeps_cache_exact(self):
        index = LHTIndex(
            LocalDHT(8, 0),
            IndexConfig(theta_split=2, cache_enabled=True, cache_capacity=16),
        )
        assert index.cache is not None
        for k in (0.1, 0.2, 0.3, 0.6, 0.8):
            index.insert(k)
        # Single-writer exactness: every cached label names a live leaf.
        assert set(_labels(index.cache)) <= _live_leaves(index)

    def test_merge_hook_keeps_cache_exact(self):
        index = LHTIndex(
            LocalDHT(8, 0),
            IndexConfig(
                theta_split=2,
                merge_enabled=True,
                cache_enabled=True,
                cache_capacity=16,
            ),
        )
        assert index.cache is not None
        keys = [0.1, 0.2, 0.3, 0.6, 0.8, 0.9]
        for k in keys:
            index.insert(k)
        for k in keys:
            assert index.delete(k).deleted
        assert set(_labels(index.cache)) <= _live_leaves(index)
        assert index.range_query(0.0, 1.0).records == ()

    def test_root_only_index_caches_root(self):
        index = LHTIndex(
            LocalDHT(8, 0),
            IndexConfig(theta_split=8, cache_enabled=True),
        )
        assert index.cache is not None
        index.insert(0.5)
        record, cost = index.exact_match(0.5)
        assert record is not None and cost == 1
        assert ROOT in index.cache


class TestCachedLookupStaleness:
    """A second writer mutates the shared DHT behind the cache's back."""

    @staticmethod
    def _pair() -> tuple[LHTIndex, LHTIndex]:
        dht = LocalDHT(8, 0)
        cached = LHTIndex(
            dht,
            IndexConfig(
                theta_split=4,
                merge_enabled=True,
                cache_enabled=True,
                cache_capacity=64,
            ),
        )
        writer = LHTIndex(dht, IndexConfig(theta_split=4, merge_enabled=True))
        return cached, writer

    def test_remote_split_entry_validates_or_recovers(self):
        cached, writer = self._pair()
        for k in (0.1, 0.6):
            cached.insert(k)
        assert cached.exact_match(0.1)[0] is not None  # warm the cache
        # A different client splits the left leaf.
        for k in (0.2, 0.3, 0.05, 0.15, 0.25):
            writer.insert(k)
        probes = (0.05, 0.15, 0.25, 0.3, 0.1)
        before = cached.dht.metrics.snapshot()
        for k in probes:
            record, _ = cached.exact_match(k)
            assert record is not None and record.key == k
        spent = cached.dht.metrics.snapshot() - before
        # Probes either hit (Theorem 2 keeps one child under the parent's
        # name), detect staleness and re-search, or miss; none may lie.
        assert (
            spent.cache_hits + spent.cache_stale + spent.cache_misses
            == len(probes)
        )
        # Detected staleness re-primes the cache: probing again is all
        # hits at exactly one validated get each.
        before = cached.dht.metrics.snapshot()
        for k in probes:
            assert cached.exact_match(k)[0] is not None
        spent = cached.dht.metrics.snapshot() - before
        assert spent.cache_hits == len(probes) and spent.cache_stale == 0
        assert spent.gets == len(probes)

    def test_remote_merge_invalidates_through_probe(self):
        cached, writer = self._pair()
        keys = [0.1, 0.2, 0.3, 0.6, 0.8, 0.9]
        for k in keys:
            cached.insert(k)
        for k in keys:
            assert cached.exact_match(k)[0] is not None
        # The other client deletes everything, collapsing leaves.
        for k in keys:
            assert writer.delete(k).deleted
        for k in keys:
            record, _ = cached.exact_match(k)
            assert record is None  # proven absent, never a stale PRESENT
        # The detours healed the entries: the next probe is a clean hit.
        before = cached.dht.metrics.snapshot()
        assert cached.exact_match(0.1)[0] is None
        spent = cached.dht.metrics.snapshot() - before
        assert spent.cache_hits == 1

    def test_stale_probe_charged_honestly(self):
        cached, writer = self._pair()
        cached.insert(0.1)
        cached.exact_match(0.1)
        for k in (0.2, 0.3, 0.05, 0.15, 0.25):
            writer.insert(k)
        before = cached.dht.metrics.snapshot()
        result = cached.lookup(0.25)
        spent = cached.dht.metrics.snapshot() - before
        assert result.bucket is not None
        # The result's charge matches the substrate's, probe included —
        # a stale entry costs one get *more* than an uncached search.
        assert result.dht_lookups == spent.gets
        if spent.cache_stale:
            assert result.dht_lookups > 1


class _ErringDHT(LocalDHT):
    """LocalDHT whose gets raise a typed error while armed."""

    def __init__(self) -> None:
        super().__init__(n_peers=8, seed=0)
        self.erring = False

    def get(self, key: str):
        if self.erring:
            raise DHTError("substrate down")
        return super().get(key)


class TestCacheFailureDiscipline:
    def test_dht_error_propagates_and_cache_is_untouched(self):
        dht = _ErringDHT()
        index = LHTIndex(dht, IndexConfig(theta_split=8, cache_enabled=True))
        index.insert(0.5)
        index.exact_match(0.5)
        entries = _labels(index.cache)
        dht.erring = True
        with pytest.raises(DHTError):
            index.exact_match(0.5)
        assert _labels(index.cache) == entries  # not evicted, not poisoned
        dht.erring = False
        before = dht.metrics.snapshot()
        assert index.exact_match(0.5)[0] is not None
        assert (dht.metrics.snapshot() - before).cache_hits == 1

    def test_open_breaker_does_not_poison_cache(self):
        inner = _ErringDHT()
        dht = ResilientDHT(
            inner,
            policy=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(failure_threshold=2, reset_timeout=3.0),
            seed=3,
        )
        index = LHTIndex(dht, IndexConfig(theta_split=8, cache_enabled=True))
        index.insert(0.5)
        index.exact_match(0.5)
        entries = _labels(index.cache)
        stale_before = dht.metrics.snapshot().cache_stale

        inner.erring = True
        for _ in range(2):  # feed the breaker to its threshold
            with pytest.raises(DHTError):
                index.lookup(0.5)
        with pytest.raises(CircuitOpenError):
            index.lookup(0.5)
        # Fast rejections and substrate errors alike left the cache alone.
        assert _labels(index.cache) == entries

        inner.erring = False
        record = None
        for _ in range(20):  # rejections tick the clock past the cool-down
            try:
                record, _ = index.exact_match(0.5)
                break
            except DHTError:
                continue
        assert record is not None and record.key == 0.5
        # Recovery revalidated the surviving entry: no stale fallback.
        assert dht.metrics.snapshot().cache_stale == stale_before
        assert _labels(index.cache) == entries


class TestCacheConfig:
    def test_cache_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            IndexConfig(theta_split=8, cache_capacity=0)

    def test_cache_off_by_default(self):
        index = LHTIndex(LocalDHT(8, 0), IndexConfig(theta_split=8))
        assert index.cache is None

    def test_cached_lookup_callable_directly(self):
        dht = LocalDHT(8, 0)
        config = IndexConfig(theta_split=8)
        index = LHTIndex(dht, config)
        index.insert(0.5)
        cache = LeafCache(4)
        first = cached_lookup(dht, config, cache, 0.5)
        second = cached_lookup(dht, config, cache, 0.5)
        assert first.bucket is not None and second.bucket is not None
        assert first.bucket.label == second.bucket.label
        assert second.dht_lookups == 1

    def test_cached_lookup_is_what_a_cached_index_runs(self):
        """Twin indexes, one probed through ``index.lookup`` and one
        through ``cached_lookup`` on its cache: same results, same
        counters, same cache — cold, hit and (after splits) stale."""
        twins = []
        for _ in range(2):
            dht = _ErringDHT()
            index = LHTIndex(
                dht,
                IndexConfig(theta_split=4, cache_enabled=True, cache_capacity=8),
            )
            # A second client splits leaves behind the cache's back.
            twins.append((dht, index, LHTIndex(dht, IndexConfig(theta_split=4))))
        (dht_a, via_index, _), (dht_b, direct, _) = twins
        keys = [i / 32 for i in range(32)]
        for round_keys in (keys[:6], keys[6:], keys[::3]):
            for _, _, writer in twins:
                for key in round_keys:
                    writer.insert(key + 1 / 128)
            for key in keys:
                a = via_index.lookup(key)
                b = cached_lookup(dht_b, direct.config, direct.cache, key)
                assert (a.name, a.dht_lookups, a.probed) == (
                    b.name, b.dht_lookups, b.probed,
                )
                assert a.bucket.label == b.bucket.label
        spent = dht_a.metrics.snapshot()
        assert spent == dht_b.metrics.snapshot()
        assert spent.cache_hits and spent.cache_stale and spent.cache_misses
        assert _labels(via_index.cache) == _labels(direct.cache)
        # An errored probe aborts either spelling with the cache untouched.
        entries = _labels(direct.cache)
        dht_a.erring = dht_b.erring = True
        with pytest.raises(DHTError):
            via_index.lookup(keys[0])
        with pytest.raises(DHTError):
            cached_lookup(dht_b, direct.config, direct.cache, keys[0])
        assert _labels(via_index.cache) == _labels(direct.cache) == entries
