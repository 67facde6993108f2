"""Model-based stateful testing: LHTIndex vs the centralized oracle.

A hypothesis ``RuleBasedStateMachine`` drives a random interleaving of
inserts, deletes, lookups, range queries, min/max and scans against both
the distributed index and the :class:`ReferenceTree`, checking full
agreement after every step and structural invariants as machine-level
invariants.  This is the strongest single correctness artefact in the
suite: any divergence between the distributed protocol and the paper's
abstract tree is found as a minimal counterexample.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import IndexConfig, IndexInspector, LHTIndex, ReferenceTree
from repro.dht import LocalDHT

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


class LHTMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.config = IndexConfig(
            theta_split=4, max_depth=40, merge_enabled=True
        )
        self.dht = LocalDHT(n_peers=16, seed=0)
        self.index = LHTIndex(self.dht, self.config)
        self.oracle = ReferenceTree(self.config)
        self.live: list[float] = []

    @initialize(keys=st.lists(unit_floats, max_size=30))
    def seed_data(self, keys: list[float]) -> None:
        for key in keys:
            self.index.insert(key)
            self.oracle.insert(key)
            self.live.append(key)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    @rule(key=unit_floats)
    def insert(self, key: float) -> None:
        self.index.insert(key)
        self.oracle.insert(key)
        self.live.append(key)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete_existing(self, data) -> None:
        key = data.draw(st.sampled_from(self.live))
        self.live.remove(key)
        assert self.index.delete(key).deleted
        assert self.oracle.delete(key)

    @rule(key=unit_floats)
    def delete_probably_absent(self, key: float) -> None:
        expected = key in self.live
        result = self.index.delete(key)
        assert result.deleted == expected
        if expected:
            self.live.remove(key)
            self.oracle.delete(key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @rule(key=unit_floats)
    def lookup_agrees(self, key: float) -> None:
        record, _ = self.index.exact_match(key)
        assert (record is not None) == (key in self.live)

    @rule(a=unit_floats, b=unit_floats)
    def range_agrees(self, a: float, b: float) -> None:
        lo, hi = min(a, b), max(a, b)
        result = self.index.range_query(lo, hi)
        assert result.keys == sorted(k for k in self.live if lo <= k < hi)

    @rule()
    def minmax_agree(self) -> None:
        mn = self.index.min_query().record
        mx = self.index.max_query().record
        if self.live:
            assert mn is not None and mn.key == min(self.live)
            assert mx is not None and mx.key == max(self.live)
        else:
            assert mn is None and mx is None

    @rule()
    def scan_agrees(self) -> None:
        assert [r.key for r in self.index.scan()] == sorted(self.live)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def distributed_state_is_consistent(self) -> None:
        IndexInspector(self.dht).verify()

    @invariant()
    def matches_oracle_tree(self) -> None:
        inspector = IndexInspector(self.dht)
        assert sorted(
            str(b.label) for b in inspector.buckets().values()
        ) == sorted(str(label) for label in self.oracle.leaf_labels)

    @invariant()
    def record_count_tracks(self) -> None:
        assert len(self.index) == len(self.live)


TestLHTStateMachine = LHTMachine.TestCase
TestLHTStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class CacheEquivalenceMachine(RuleBasedStateMachine):
    """Cache-on and cache-off indexes must be observationally identical.

    Two LHTIndexes over identically-seeded substrates run the same
    random interleaving of mutations and queries; the only difference is
    ``cache_capacity`` (deliberately tiny, so eviction and
    re-priming churn constantly).  Every query's *answer* must agree
    byte-for-byte — records, verdicts, range contents — across splits
    and merges; only the cost may differ.  This machine is the
    equivalence oracle gating the whole cache feature: any answer the
    cache changes shows up as a minimal counterexample.
    """

    def __init__(self) -> None:
        super().__init__()
        base = dict(theta_split=4, max_depth=40, merge_enabled=True)
        self.plain = LHTIndex(
            LocalDHT(n_peers=16, seed=0), IndexConfig(**base)
        )
        self.cached = LHTIndex(
            LocalDHT(n_peers=16, seed=0),
            IndexConfig(**base, cache_capacity=4),
        )
        self.live: list[float] = []

    @initialize(keys=st.lists(unit_floats, max_size=30))
    def seed_data(self, keys: list[float]) -> None:
        for key in keys:
            self.plain.insert(key)
            self.cached.insert(key)
            self.live.append(key)

    # ------------------------------------------------------------------
    # Mutations (applied to both; outcomes must agree)
    # ------------------------------------------------------------------

    @rule(key=unit_floats)
    def insert(self, key: float) -> None:
        plain = self.plain.insert(key)
        cached = self.cached.insert(key)
        assert plain.leaf == cached.leaf
        assert (plain.split is None) == (cached.split is None)
        self.live.append(key)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete_existing(self, data) -> None:
        key = data.draw(st.sampled_from(self.live))
        self.live.remove(key)
        plain = self.plain.delete(key)
        cached = self.cached.delete(key)
        assert plain.deleted and cached.deleted
        assert plain.merges == cached.merges

    @rule(key=unit_floats)
    def delete_probably_absent(self, key: float) -> None:
        plain = self.plain.delete(key)
        cached = self.cached.delete(key)
        assert plain.deleted == cached.deleted
        if plain.deleted:
            self.live.remove(key)

    # ------------------------------------------------------------------
    # Queries (answers must be byte-identical)
    # ------------------------------------------------------------------

    @rule(key=unit_floats)
    def exact_match_agrees(self, key: float) -> None:
        plain_record, _ = self.plain.exact_match(key)
        cached_record, _ = self.cached.exact_match(key)
        assert repr(plain_record) == repr(cached_record)
        assert (plain_record is not None) == (key in self.live)

    @rule(key=unit_floats)
    def checked_match_agrees(self, key: float) -> None:
        plain = self.plain.exact_match_checked(key)
        cached = self.cached.exact_match_checked(key)
        assert plain.status == cached.status
        assert repr(plain.record) == repr(cached.record)

    @rule(a=unit_floats, b=unit_floats)
    def range_agrees(self, a: float, b: float) -> None:
        lo, hi = min(a, b), max(a, b)
        plain = self.plain.range_query(lo, hi)
        cached = self.cached.range_query(lo, hi)
        assert plain.records == cached.records
        assert plain.keys == sorted(k for k in self.live if lo <= k < hi)

    @rule()
    def minmax_agree(self) -> None:
        assert repr(self.plain.min_query().record) == repr(
            self.cached.min_query().record
        )
        assert repr(self.plain.max_query().record) == repr(
            self.cached.max_query().record
        )

    @rule()
    def scan_agrees(self) -> None:
        assert [r.key for r in self.plain.scan()] == [
            r.key for r in self.cached.scan()
        ]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def both_indexes_consistent(self) -> None:
        IndexInspector(self.plain.dht).verify()
        IndexInspector(self.cached.dht).verify()

    @invariant()
    def same_tree_shape(self) -> None:
        assert sorted(
            str(b.label)
            for b in IndexInspector(self.plain.dht).buckets().values()
        ) == sorted(
            str(b.label)
            for b in IndexInspector(self.cached.dht).buckets().values()
        )

    @invariant()
    def cache_is_bounded_and_exact(self) -> None:
        cache = self.cached.cache
        assert cache is not None
        assert len(cache) <= cache.capacity
        # Single-writer exactness: every cached label names a live leaf.
        live = {
            str(b.label)
            for b in IndexInspector(self.cached.dht).buckets().values()
        }
        assert {str(label) for label in cache.labels()} <= live


TestCacheEquivalenceMachine = CacheEquivalenceMachine.TestCase
TestCacheEquivalenceMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
