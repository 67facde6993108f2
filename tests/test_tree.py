"""Unit and property tests for the centralized reference tree (§3.2)."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import IndexConfig, Label, ReferenceTree, ROOT

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


class TestBasics:
    def test_starts_with_single_root_leaf(self):
        tree = ReferenceTree()
        assert tree.leaf_labels == [ROOT]
        assert tree.size == 0
        assert tree.depth == 1

    def test_insert_and_membership(self):
        tree = ReferenceTree(IndexConfig(theta_split=8))
        tree.insert(0.3)
        assert 0.3 in tree
        assert 0.4 not in tree
        assert tree.size == 1

    def test_leaf_for(self):
        tree = ReferenceTree(IndexConfig(theta_split=4))
        for key in (0.1, 0.2, 0.6, 0.7, 0.8, 0.9):
            tree.insert(key)
        leaf = tree.leaf_for(0.1)
        assert leaf.contains(0.1)
        assert 0.1 in tree.keys_in_leaf(leaf)

    def test_split_at_median(self):
        # θ=4: capacity 3 records; the 4th insert splits at the median.
        tree = ReferenceTree(IndexConfig(theta_split=4))
        for key in (0.1, 0.2, 0.3):
            tree.insert(key)
        assert tree.leaf_labels == [ROOT]
        tree.insert(0.4)
        assert tree.split_count == 1
        assert set(map(str, tree.leaf_labels)) == {"#00", "#01"}
        # all four keys < 0.5 land in the left child
        assert tree.keys_in_leaf(Label.parse("#00")) == [0.1, 0.2, 0.3, 0.4]
        assert tree.keys_in_leaf(Label.parse("#01")) == []

    def test_at_most_one_split_per_insert(self):
        # Highly skewed keys would cascade if allowed.
        tree = ReferenceTree(IndexConfig(theta_split=4))
        for i in range(20):
            before = tree.split_count
            tree.insert(0.001 + i * 1e-5)
            assert tree.split_count - before <= 1
        tree.check_invariants()

    def test_delete(self):
        tree = ReferenceTree(IndexConfig(theta_split=8))
        tree.insert(0.5)
        assert tree.delete(0.5)
        assert not tree.delete(0.5)
        assert tree.size == 0

    def test_merge_on_delete(self):
        config = IndexConfig(theta_split=8, merge_enabled=True)
        tree = ReferenceTree(config)
        keys = [i / 32 + 1e-4 for i in range(32)]
        for key in keys:
            tree.insert(key)
        assert len(tree.leaf_labels) > 1
        for key in keys:
            tree.delete(key)
            tree.check_invariants()
        assert tree.merge_count > 0

    def test_depth_limit(self):
        """At the depth cap the split is skipped: the leaf grows past the
        threshold, as the index keeps an over-full leaf there."""
        tree = ReferenceTree(IndexConfig(theta_split=2, max_depth=3))
        keys = [1e-6 + i * 1e-9 for i in range(50)]
        for key in keys:
            tree.insert(key)
        assert tree.depth == 3
        assert tree.keys_in_leaf(tree.leaf_for(keys[0])) == keys
        tree.check_invariants()

    def test_keys_in_range(self):
        tree = ReferenceTree(IndexConfig(theta_split=4))
        keys = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55]
        for key in keys:
            tree.insert(key)
        assert tree.keys_in_range(0.1, 0.5) == [0.15, 0.25, 0.35, 0.45]
        assert tree.all_keys() == keys

    def test_internal_count_equals_leaf_count(self):
        # The double-root property (§3.2): #leaves == #internal nodes.
        tree = ReferenceTree(IndexConfig(theta_split=4))
        rng = np.random.default_rng(0)
        for key in rng.random(100):
            tree.insert(float(key))
        assert len(tree.internal_labels()) == len(tree.leaf_labels)


class TestInvariantsUnderRandomWorkloads:
    @given(st.lists(unit_floats, min_size=1, max_size=300))
    def test_inserts_preserve_invariants(self, keys: list[float]):
        tree = ReferenceTree(IndexConfig(theta_split=4, max_depth=40))
        for key in keys:
            tree.insert(key)
        tree.check_invariants()
        assert tree.size == len(keys)

    @given(
        st.lists(unit_floats, min_size=1, max_size=150),
        st.randoms(use_true_random=False),
    )
    def test_mixed_workload_preserves_invariants(self, keys, rand):
        tree = ReferenceTree(
            IndexConfig(theta_split=4, max_depth=40, merge_enabled=True)
        )
        live: list[float] = []
        for key in keys:
            if live and rand.random() < 0.4:
                victim = live.pop(rand.randrange(len(live)))
                tree.delete(victim)
            else:
                tree.insert(key)
                live.append(key)
        tree.check_invariants()
        assert tree.all_keys() == sorted(live)
