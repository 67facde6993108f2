"""Tests for min/max queries (paper §7, Theorem 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import IndexConfig, LHTIndex
from repro.dht import NO_REPLY, LocalDHT
from repro.errors import LookupError_

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


def _build(keys, theta=4, merge=False):
    index = LHTIndex(
        LocalDHT(n_peers=16, seed=0),
        IndexConfig(theta_split=theta, max_depth=30, merge_enabled=merge),
    )
    for key in keys:
        index.insert(key)
    return index


class TestTheorem3:
    @given(st.lists(unit_floats, min_size=1, max_size=300))
    def test_min_max_correct(self, keys):
        index = _build(keys)
        assert index.min_query().record.key == min(keys)
        assert index.max_query().record.key == max(keys)

    @given(st.lists(unit_floats, min_size=20, max_size=300, unique=True))
    def test_single_lookup_on_grown_trees(self, keys):
        """One DHT-lookup whenever the extreme bucket holds a record —
        Theorem 3's setting.  (Heavily skewed splits can leave an edge
        bucket empty, in which case the query walks inward; correctness
        is covered by TestEmptyExtremeBuckets.)"""
        index = _build(keys)
        if index.leaf_count == 1:
            return
        ordered = index.leaf_labels()
        leftmost = index.dht.peek("#")
        rightmost = index.dht.peek("#0")
        assert leftmost.label == ordered[0]
        assert rightmost.label == ordered[-1]
        if len(leftmost):
            assert index.min_query().dht_lookups == 1
        if len(rightmost):
            assert index.max_query().dht_lookups == 1

    def test_single_leaf_tree_max_needs_repair(self):
        """With one leaf (#0 stored under '#'), the max query's probe of
        '#0' fails and is repaired with one extra lookup."""
        index = _build([0.3, 0.7])
        assert index.min_query().dht_lookups == 1
        assert index.max_query().dht_lookups == 2
        assert index.max_query().record.key == 0.7

    def test_empty_index(self):
        index = _build([])
        assert index.min_query().record is None
        assert index.max_query().record is None


class TestEmptyExtremeBuckets:
    def test_min_walks_past_emptied_leftmost_leaf(self):
        """Deleting everything in the leftmost bucket (merges disabled)
        leaves it empty; the min query walks inward."""
        keys = [i / 64 + 1e-6 for i in range(64)]
        index = _build(keys, theta=4)
        # delete the lowest quarter
        for key in keys[:16]:
            assert index.delete(key).deleted
        result = index.min_query()
        assert result.record.key == keys[16]
        assert result.dht_lookups >= 1

    def test_max_walks_past_emptied_rightmost_leaf(self):
        keys = [i / 64 + 1e-6 for i in range(64)]
        index = _build(keys, theta=4)
        for key in keys[48:]:
            assert index.delete(key).deleted
        result = index.max_query()
        assert result.record.key == keys[47]

    def test_fully_emptied_index_returns_none(self):
        keys = [i / 16 + 1e-6 for i in range(16)]
        index = _build(keys, theta=4)
        for key in keys:
            index.delete(key)
        assert index.min_query().record is None
        assert index.max_query().record is None


class _LossyLocalDHT(LocalDHT):
    """A local DHT whose gets of the names in ``lost`` get no reply."""

    def __init__(self) -> None:
        super().__init__(n_peers=16, seed=0)
        self.lost: set[str] = set()

    def get(self, key):
        return NO_REPLY if key in self.lost else super().get(key)


class TestLostReplyNeverSteersARepair:
    """An unrescued lost reply reads as a miss; a repair step it steers
    must end ``complete=False`` (or raise), never at a wrong leaf."""

    #: Leaves #000 (0.0 … 0.1035), #001 (0.2520) and an empty #01.
    KEYS = [0.0, 8 / 2**12, 9 / 2**12, 0.103515625, 0.251953125]

    def _index(self, lost: set[str]) -> LHTIndex:
        dht = _LossyLocalDHT()
        index = LHTIndex(dht, IndexConfig(theta_split=4, max_depth=20))
        for key in self.KEYS:
            index.insert(key)
        assert [str(label) for label in index.leaf_labels()] == [
            "#000", "#001", "#01",
        ]
        dht.lost = lost
        return index

    def test_inward_walk_rejects_a_non_adjacent_repair(self):
        """'#00' (stores #001) lost: f_n('#00') = '#' holds #000, which
        does not abut #01, so the walk is cut off, not answered 0.1035."""
        index = self._index({"#00"})
        result = index.max_query(degraded=True)
        assert not result.complete and result.record is None
        with pytest.raises(LookupError_):
            index.max_query()
        assert index.min_query().record.key == 0.0

    def test_knn_raises_instead_of_skipping_a_leaf(self):
        index = self._index({"#00"})
        with pytest.raises(LookupError_):
            index.knn_query(0.75, 1)

    def test_single_leaf_fallback_requires_the_root_leaf(self):
        """'#0' lost: the leaf under '#' is #000, not #0, so the tree is
        not a single leaf and #000's maximum is no answer."""
        index = self._index({"#0"})
        result = index.max_query(degraded=True)
        assert not result.complete and result.record is None

    def test_fault_free_answers_are_unchanged(self):
        index = self._index(set())
        assert index.max_query().record.key == 0.251953125
        assert index.knn_query(0.75, 1).records[0].key == 0.251953125
