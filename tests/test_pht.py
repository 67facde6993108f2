"""Tests for the PHT baseline: lookup, split profile, leaf links, ranges."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.pht import PHTIndex, PHTNode
from repro.core import IndexConfig, Label, LeafBucket, Range, Record, ReferenceTree, ROOT
from repro.dht import LocalDHT

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


def _build(keys, theta=8, depth=20, seed=0):
    dht = LocalDHT(n_peers=16, seed=seed)
    index = PHTIndex(dht, IndexConfig(theta_split=theta, max_depth=depth))
    for key in keys:
        index.insert(key)
    return index, dht


class TestNodeStore:
    """A PHT node keeps its records in ``LeafBucket``'s store."""

    @given(st.lists(unit_floats, max_size=60), unit_floats, unit_floats)
    def test_same_answers_as_a_leaf_bucket(self, keys, a, b):
        records = [Record(k, i) for i, k in enumerate(keys)]
        node, bucket = PHTNode(ROOT, True, records), LeafBucket(ROOT, records)
        assert node.records == bucket.records
        assert node.slot_count == bucket.slot_count
        rng = Range(min(a, b), max(a, b))
        assert node.records_in(rng) == bucket.records_in(rng)
        assert node.records_in(rng) == [r for r in node if rng.contains(r.key)]
        for key in keys + [a]:
            assert node.find(key) == bucket.find(key)
            assert node.remove(key) == bucket.remove(key)

    def test_out_of_range_probe_is_a_miss_not_an_error(self):
        node = PHTNode(ROOT, True, [Record(0.5)])
        assert node.find(1.5) is None and node.remove(-0.25) is None
        assert len(node) == 1


class TestStructure:
    def test_bootstrap(self):
        _, dht = _build([])
        node = dht.peek("#0")
        assert isinstance(node, PHTNode) and node.is_leaf

    def test_every_trie_node_is_stored_under_its_label(self):
        """PHT's defining property: internal nodes included, each node is
        addressable directly by its own label."""
        rng = np.random.default_rng(0)
        index, dht = _build([float(k) for k in rng.random(500)], theta=4)
        tree = ReferenceTree(IndexConfig(theta_split=4, max_depth=20))
        for k in rng.random(0):
            pass
        stored = {key for key in dht.keys()}
        for bits in index._leaf_bits:
            label = Label(bits)
            assert str(label) in stored
            for ancestor in label.ancestors():
                if not ancestor.is_virtual_root:
                    assert str(ancestor) in stored
                    assert not dht.peek(str(ancestor)).is_leaf

    def test_same_tree_shape_as_reference(self):
        rng = np.random.default_rng(1)
        keys = [float(k) for k in rng.random(800)]
        index, _ = _build(keys, theta=8)
        tree = ReferenceTree(IndexConfig(theta_split=8, max_depth=20))
        for key in keys:
            tree.insert(key)
        assert sorted(index._leaf_bits) == sorted(
            l.bits for l in tree.leaf_labels
        )


class TestLookup:
    @given(st.lists(unit_floats, min_size=1, max_size=250))
    def test_every_stored_key_retrievable(self, keys):
        index, _ = _build(keys, theta=4, depth=40)
        for key in keys:
            record, _ = index.exact_match(key)
            assert record is not None and record.key == key

    def test_lookup_probe_count_log_d(self):
        rng = np.random.default_rng(2)
        index, _ = _build([float(k) for k in rng.random(2000)], theta=10)
        import math

        bound = math.ceil(math.log2(20)) + 1
        for key in rng.random(300):
            result = index.lookup(float(key))
            assert result.found
            assert result.dht_lookups <= bound

    def test_contains(self):
        index, _ = _build([0.42])
        assert 0.42 in index
        assert 0.5 not in index

    def test_delete(self):
        index, _ = _build([0.3, 0.4])
        deleted, _ = index.delete(0.3)
        assert deleted
        deleted, _ = index.delete(0.3)
        assert not deleted
        assert len(index) == 1


class TestSplitProfile:
    def test_split_costs_match_equation_2(self):
        """Ψ_PHT (Eq. 2): both children remote (whole bucket moved) plus
        up to two B+-tree link repairs, 2-4 DHT-lookups per split."""
        rng = np.random.default_rng(3)
        index, _ = _build([float(k) for k in rng.random(2000)], theta=10)
        assert index.ledger.split_count > 50
        for event in index.ledger.splits:
            assert 2 <= event.dht_lookups <= 4
            # the full bucket moves (≥ θ-1; lopsided splits can leave a
            # child overfull, so occasionally slightly more)
            assert event.records_moved >= 10 - 1
        typical = sum(1 for e in index.ledger.splits if e.records_moved == 9)
        assert typical >= index.ledger.split_count * 0.9
        # interior splits (the vast majority) repair both neighbors
        fours = sum(1 for e in index.ledger.splits if e.dht_lookups == 4)
        assert fours >= index.ledger.split_count * 0.8

    def test_maintenance_roughly_4x_lht_lookups(self):
        from repro.core import LHTIndex

        rng = np.random.default_rng(4)
        keys = [float(k) for k in rng.random(3000)]
        pht, _ = _build(keys, theta=10)
        lht = LHTIndex(
            LocalDHT(n_peers=16, seed=0),
            IndexConfig(theta_split=10, max_depth=20),
        )
        for key in keys:
            lht.insert(key)
        ratio = lht.ledger.maintenance_lookups / pht.ledger.maintenance_lookups
        assert 0.2 < ratio < 0.3  # the paper's "about 25%"
        move_ratio = (
            lht.ledger.maintenance_records_moved
            / pht.ledger.maintenance_records_moved
        )
        assert 0.4 < move_ratio < 0.6  # the paper's "half"


class TestLeafLinks:
    def test_links_form_ordered_chain(self):
        rng = np.random.default_rng(5)
        index, dht = _build([float(k) for k in rng.random(1000)], theta=8)
        # walk from the leftmost leaf via next links
        label = ROOT
        node = dht.peek(str(label))
        while not node.is_leaf:
            label = node.label.left_child
            node = dht.peek(str(label))
        seen = []
        while node is not None:
            seen.append(node.label)
            node = dht.peek(str(node.next_label)) if node.next_label else None
        assert sorted(str(l) for l in seen) == sorted(
            str(Label(bits)) for bits in index._leaf_bits
        )
        lows = [l.interval.low for l in seen]
        assert lows == sorted(lows)

    def test_prev_links_mirror_next_links(self):
        rng = np.random.default_rng(6)
        index, dht = _build([float(k) for k in rng.random(600)], theta=8)
        for bits in index._leaf_bits:
            node = dht.peek(str(Label(bits)))
            if node.next_label is not None:
                neighbor = dht.peek(str(node.next_label))
                assert neighbor.prev_label == node.label


class TestRangeQueries:
    @given(st.lists(unit_floats, min_size=1, max_size=200), unit_floats, unit_floats)
    def test_sequential_matches_bruteforce(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        index, _ = _build(keys, theta=4)
        result = index.range_query_sequential(lo, hi)
        assert result.keys == sorted(k for k in keys if lo <= k < hi)

    @given(st.lists(unit_floats, min_size=1, max_size=200), unit_floats, unit_floats)
    def test_parallel_matches_bruteforce(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        index, _ = _build(keys, theta=4)
        result = index.range_query_parallel(lo, hi)
        assert result.keys == sorted(k for k in keys if lo <= k < hi)

    def test_empty_range(self):
        index, _ = _build([0.5])
        assert index.range_query_sequential(0.3, 0.3).records == ()
        assert index.range_query_parallel(0.3, 0.3).records == ()

    def test_parallel_uses_more_bandwidth_less_latency(self):
        rng = np.random.default_rng(7)
        index, _ = _build([float(k) for k in rng.random(3000)], theta=8)
        seq = index.range_query_sequential(0.2, 0.7)
        par = index.range_query_parallel(0.2, 0.7)
        assert par.dht_lookups > seq.dht_lookups
        # Fig. 10: the sequential walk is several-fold slower, not
        # marginally so.
        assert 3 * par.parallel_steps < seq.parallel_steps

    def test_sequential_latency_linear_in_buckets(self):
        rng = np.random.default_rng(8)
        index, _ = _build([float(k) for k in rng.random(3000)], theta=8)
        result = index.range_query_sequential(0.1, 0.9)
        assert result.parallel_steps >= result.buckets_visited


class TestMinMax:
    @given(st.lists(unit_floats, min_size=1, max_size=200))
    def test_min_max_correct(self, keys):
        index, _ = _build(keys, theta=4)
        mn, _ = index.min_query()
        mx, _ = index.max_query()
        assert mn.key == min(keys)
        assert mx.key == max(keys)

    def test_cost_grows_with_depth(self):
        small, _ = _build([0.5])
        rng = np.random.default_rng(9)
        large, _ = _build([float(k) for k in rng.random(3000)], theta=8)
        _, small_cost = small.min_query()
        _, large_cost = large.min_query()
        assert large_cost > small_cost


class TestBulkLoad:
    def test_equivalent_to_per_record_insert(self):
        rng = np.random.default_rng(10)
        keys = [float(k) for k in rng.random(1200)]
        slow, _ = _build(keys, theta=8)
        fast_dht = LocalDHT(n_peers=16, seed=0)
        fast = PHTIndex(fast_dht, IndexConfig(theta_split=8, max_depth=20))
        fast.bulk_load(keys)
        assert sorted(fast._leaf_bits) == sorted(slow._leaf_bits)
        assert fast.ledger.maintenance_lookups == slow.ledger.maintenance_lookups
        assert (
            fast.ledger.maintenance_records_moved
            == slow.ledger.maintenance_records_moved
        )
