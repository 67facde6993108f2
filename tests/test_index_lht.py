"""Tests for the distributed LHT index: mutation, maintenance, accounting."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    IndexConfig,
    IndexInspector,
    Label,
    LHTIndex,
    ReferenceTree,
    naming,
)
from repro.dht import LocalDHT
from repro.dht.kernel import DelegatingDHT
from repro.errors import LookupError_, SanitizerError

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


def _fresh(theta: int = 8, depth: int = 20, merge: bool = False):
    dht = LocalDHT(n_peers=16, seed=0)
    index = LHTIndex(
        dht, IndexConfig(theta_split=theta, max_depth=depth, merge_enabled=merge)
    )
    return index, dht


class TestBootstrap:
    def test_root_bucket_under_virtual_root(self):
        index, dht = _fresh()
        bucket = dht.peek("#")
        assert bucket is not None and bucket.label == Label.parse("#0")
        assert index.leaf_count == 1
        assert len(index) == 0


class TestInsert:
    def test_insert_returns_costs(self):
        index, _ = _fresh()
        result = index.insert(0.5, "payload")
        assert result.leaf == Label.parse("#0")
        assert result.split is None
        # lookup probes + the DHT-put towards κ
        assert result.dht_lookups >= 2

    def test_split_event_fields(self):
        index, _ = _fresh(theta=4)
        events = [index.insert(k).split for k in (0.1, 0.2, 0.3, 0.6)]
        split = next(e for e in events if e is not None)
        assert split.parent == Label.parse("#0")
        assert {split.local, split.remote} == {
            Label.parse("#00"),
            Label.parse("#01"),
        }
        assert split.dht_lookups == 1
        assert 0.0 <= split.alpha <= 1.0

    def test_remote_bucket_named_to_parent_label(self):
        """Theorem 2 made operational: after the root splits, the remote
        child is stored under the old label '#0'."""
        index, dht = _fresh(theta=4)
        for key in (0.1, 0.2, 0.3, 0.6):
            index.insert(key)
        remote = dht.peek("#0")
        local = dht.peek("#")
        assert remote is not None and local is not None
        assert naming(remote.label) == Label.parse("#0")
        assert naming(local.label) == Label.parse("#")

    def test_at_most_one_split_per_insert_even_when_skewed(self):
        index, dht = _fresh(theta=4)
        for i in range(40):
            before = index.ledger.split_count
            index.insert(1e-6 + i * 1e-9)
            assert index.ledger.split_count - before <= 1
        IndexInspector(dht).verify()

    def test_overfull_bucket_at_max_depth(self):
        """When the depth cap prevents a split the bucket absorbs the
        overflow instead of failing."""
        index, dht = _fresh(theta=4, depth=3)
        for i in range(30):
            index.insert(i / 64 + 1e-6)
        IndexInspector(dht).verify()
        assert len(index) == 30

    def test_alpha_accounting_matches_formula_on_uniform(self):
        theta = 10
        index, _ = _fresh(theta=theta)
        rng = np.random.default_rng(3)
        for key in rng.random(4000):
            index.insert(float(key))
        expected = 0.5 + 1.0 / (2 * theta)
        assert abs(index.ledger.average_alpha - expected) < 0.05

    def test_alpha_accounting_tracks_formula_on_gaussian(self):
        # Fig. 6's other arm: skewed keys deviate more, hence the
        # looser band.
        theta = 40
        index, _ = _fresh(theta=theta)
        rng = np.random.default_rng(3)
        keys = [k for k in rng.normal(0.5, 1 / 6, 6000) if 0.0 <= k < 1.0]
        for key in keys[:4000]:
            index.insert(float(key))
        expected = 0.5 + 1.0 / (2 * theta)
        assert abs(index.ledger.average_alpha - expected) < 0.06


class TestDelete:
    def test_delete_present_and_absent(self):
        index, _ = _fresh()
        index.insert(0.4, "x")
        assert index.delete(0.4).deleted
        assert not index.delete(0.4).deleted
        assert len(index) == 0

    def test_merge_is_dual_of_split(self):
        index, dht = _fresh(theta=8, merge=True)
        keys = [i / 64 + 1e-6 for i in range(64)]
        for key in keys:
            index.insert(key)
        splits = index.ledger.split_count
        assert splits > 0
        for key in keys:
            index.delete(key)
        IndexInspector(dht).verify()
        assert index.ledger.merges, "deleting everything should merge leaves"
        # merged survivor keeps its storage key: state remains consistent
        assert index.range_query(0.0, 1.0).records == ()

    def test_merge_moves_records(self):
        index, _ = _fresh(theta=8, merge=True)
        keys = [i / 64 + 1e-6 for i in range(64)]
        for key in keys:
            index.insert(key)
        for key in keys[:60]:
            index.delete(key)
        moved = sum(e.records_moved for e in index.ledger.merges)
        assert moved >= 0
        assert all(e.dht_lookups == 2 for e in index.ledger.merges)


class WriteSpy(DelegatingDHT):
    """Counts the write calls that reach the substrate."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.calls: Counter[str] = Counter()

    def put(self, key, value):
        self.calls["put"] += 1
        self.inner.put(key, value)

    def local_write(self, key, value):
        self.calls["local_write"] += 1
        self.inner.local_write(key, value)


class TestWriteCalls:
    """An in-bucket insert or delete is one routed put carrying the new
    bucket; only a split writes the stayer locally (Alg. 1)."""

    @pytest.fixture
    def spied(self):
        spy = WriteSpy(LocalDHT(n_peers=16, seed=0))
        index = LHTIndex(spy, IndexConfig(theta_split=4, merge_enabled=True))
        for key in (0.1, 0.6):
            index.insert(key)
        spy.calls.clear()
        return index, spy

    def test_in_bucket_insert(self, spied):
        index, spy = spied
        assert index.insert(0.2).split is None
        assert spy.calls == {"put": 1}
        assert index.exact_match(0.2)[0] is not None

    def test_delete(self, spied):
        index, spy = spied
        assert index.delete(0.1).deleted
        assert spy.calls == {"put": 1}
        assert index.exact_match(0.1)[0] is None

    def test_split_insert(self, spied):
        index, spy = spied
        index.insert(0.2)
        spy.calls.clear()
        assert index.insert(0.3).split is not None
        assert spy.calls == {"put": 2, "local_write": 1}
        IndexInspector(spy).verify()


class TestBulkLoad:
    def test_accepts_pairs_and_bare_keys(self):
        index, _ = _fresh()
        index.bulk_load([0.1, (0.2, "v")])
        record, _ = index.exact_match(0.2)
        assert record.value == "v"

    def test_equivalent_tree_to_per_record_insert(self):
        rng = np.random.default_rng(1)
        keys = [float(k) for k in rng.random(1500)]
        slow, slow_dht = _fresh(theta=8)
        for key in keys:
            slow.insert(key)
        fast, fast_dht = _fresh(theta=8)
        fast.bulk_load(keys)
        slow_leaves = sorted(
            str(b.label) for b in IndexInspector(slow_dht).buckets().values()
        )
        fast_leaves = sorted(
            str(b.label) for b in IndexInspector(fast_dht).buckets().values()
        )
        assert slow_leaves == fast_leaves
        assert slow.ledger.split_count == fast.ledger.split_count
        assert (
            slow.ledger.maintenance_records_moved
            == fast.ledger.maintenance_records_moved
        )

    def test_corrupted_store_ends_in_typed_error(self):
        index, dht = _fresh(theta=4)
        index.bulk_load([0.1, 0.2, 0.3, 0.6, 0.7])
        # Corrupt a stored bucket behind the index's back.
        some_key = next(iter(dht.keys()))
        dht.put(some_key, "not a bucket")
        # Either typed error: the search over the stored leaves ends
        # without a covering bucket, or under LHT_SANITIZE=1 the sweep
        # after the first placed record meets the hole first.
        with pytest.raises((LookupError_, SanitizerError)):
            index.bulk_load([0.15, 0.65, 0.05, 0.95, 0.45, 0.25, 0.35])


class TestOracleEquivalence:
    @given(st.lists(unit_floats, min_size=1, max_size=300))
    def test_distributed_state_matches_reference(self, keys):
        index, dht = _fresh(theta=4, depth=40)
        tree = ReferenceTree(IndexConfig(theta_split=4, max_depth=40))
        for key in keys:
            index.insert(key)
            tree.insert(key)
        tree.check_invariants()
        inspector = IndexInspector(dht)
        inspector.verify()
        assert sorted(
            str(b.label) for b in inspector.buckets().values()
        ) == sorted(str(l) for l in tree.leaf_labels)
        assert inspector.all_keys() == tree.all_keys()

    @given(
        st.lists(unit_floats, min_size=1, max_size=120),
        st.randoms(use_true_random=False),
    )
    def test_mixed_workload_stays_consistent(self, keys, rand):
        index, dht = _fresh(theta=4, depth=40, merge=True)
        live: list[float] = []
        for key in keys:
            if live and rand.random() < 0.35:
                victim = live.pop(rand.randrange(len(live)))
                assert index.delete(victim).deleted
            else:
                index.insert(key)
                live.append(key)
        IndexInspector(dht).verify()
        assert IndexInspector(dht).all_keys() == sorted(live)


class TestIntrospection:
    def test_derived_counts_equal_the_oracle_after_merges(self):
        index, dht = _fresh(theta=4, merge=True)
        rng = np.random.default_rng(3)
        keys = [float(k) for k in rng.random(300)]
        for key in keys:
            index.insert(key)
        for key in keys[:240]:
            index.delete(key)
        assert len(index.ledger.merges) > 10
        stats = IndexInspector(dht).stats()
        assert index.leaf_count == stats.n_leaves
        assert index.depth == stats.max_depth
        assert len(index) == stats.n_records == 60

    def test_leaf_labels_ordered(self):
        index, _ = _fresh(theta=4)
        rng = np.random.default_rng(2)
        for key in rng.random(200):
            index.insert(float(key))
        labels = index.leaf_labels()
        lows = [label.interval.low for label in labels]
        assert lows == sorted(lows)
        assert index.leaf_count == len(labels)
        assert index.depth == max(l.depth for l in labels)

    def test_contains(self):
        index, _ = _fresh()
        index.insert(0.42)
        assert 0.42 in index
        assert 0.43 not in index

    def test_stats_inspector(self):
        index, dht = _fresh(theta=4)
        rng = np.random.default_rng(4)
        for key in rng.random(300):
            index.insert(float(key))
        stats = IndexInspector(dht).stats()
        assert stats.n_records == 300
        assert stats.n_leaves == index.leaf_count
        assert stats.min_depth <= stats.mean_depth <= stats.max_depth
        assert sum(stats.depth_histogram.values()) == stats.n_leaves
