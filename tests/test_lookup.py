"""Tests for LHT-lookup (paper Alg. 2), including the worked example."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    IndexConfig,
    Label,
    LeafBucket,
    LHTIndex,
    lht_lookup,
    naming,
)
from repro.dht import LocalDHT

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


def _plant_tree(dht: LocalDHT, leaf_texts: list[str]) -> None:
    """Store a hand-built set of leaf buckets under their f_n names."""
    for text in leaf_texts:
        label = Label.parse(text)
        dht.put(str(naming(label)), LeafBucket(label))


class TestWorkedExample:
    """The §5 example: looking up 0.9 with D = 14 in the Fig. 2 tree."""

    FIG2_LEAVES = ["#000", "#0010", "#0011", "#0100", "#0101", "#011"]

    def test_fig2_lookup_of_0_9(self):
        # In Fig. 2, λ(0.9) = #011 (the paper's variant narrates a deeper
        # tree with target #01110; the probe sequence logic is identical).
        dht = LocalDHT(8, 0)
        _plant_tree(dht, self.FIG2_LEAVES)
        result = lht_lookup(dht, IndexConfig(theta_split=4, max_depth=14), 0.9)
        assert result.found
        assert result.bucket.label == Label.parse("#011")
        assert result.name == naming(Label.parse("#011"))

    def test_deep_tree_probe_sequence(self):
        """The paper's exact narrated probes: #011100 (fails), #0 (returns
        #01111, misses), #0111 (returns #01110, the target)."""
        leaves = ["#000", "#0010", "#0011", "#0100", "#0101",
                  "#0110", "#011110", "#011111", "#01110"]
        dht = LocalDHT(8, 0)
        _plant_tree(dht, leaves)
        result = lht_lookup(dht, IndexConfig(theta_split=4, max_depth=14), 0.9)
        assert result.found
        assert result.bucket.label == Label.parse("#01110")
        probed = [str(p) for p in result.probed]
        assert probed[0] == "#011100"  # f_n(prefix of length 8)
        assert probed[1] == "#0"
        assert probed[-1] == "#0111"
        assert result.dht_lookups == 3
        # The single-plan driver charges exactly the probes it reports.
        assert len(probed) == 3
        assert dht.metrics.gets == 3

    def test_fig2_lookup_of_0_4(self):
        # §5: λ(0.4) = #001-subtree in Fig. 2; here the leaf is #0011?
        # 0.4 ∈ [0.375, 0.5) → #0011.
        dht = LocalDHT(8, 0)
        _plant_tree(dht, self.FIG2_LEAVES)
        result = lht_lookup(dht, IndexConfig(theta_split=4, max_depth=14), 0.4)
        assert result.bucket.label == Label.parse("#0011")


class TestSingleLeaf:
    def test_lookup_in_fresh_index(self):
        dht = LocalDHT(4, 0)
        index = LHTIndex(dht, IndexConfig(theta_split=8, max_depth=20))
        for key in (0.0, 0.3, 0.99):
            result = index.lookup(key)
            assert result.found
            assert result.bucket.label == Label.parse("#0")


class TestLookupProperties:
    @given(st.lists(unit_floats, min_size=1, max_size=250), unit_floats)
    def test_lookup_always_finds_covering_leaf(self, keys, probe):
        dht = LocalDHT(16, 0)
        index = LHTIndex(dht, IndexConfig(theta_split=4, max_depth=40))
        for key in keys:
            index.insert(key)
        result = index.lookup(probe)
        assert result.found
        assert result.bucket.contains_key(probe)

    @given(st.lists(unit_floats, min_size=1, max_size=250))
    def test_every_stored_key_is_retrievable(self, keys):
        dht = LocalDHT(16, 0)
        index = LHTIndex(dht, IndexConfig(theta_split=4, max_depth=40))
        for key in keys:
            index.insert(key)
        for key in keys:
            record, _ = index.exact_match(key)
            assert record is not None and record.key == key

    def test_exact_match_miss(self):
        dht = LocalDHT(8, 0)
        index = LHTIndex(dht, IndexConfig(theta_split=8, max_depth=20))
        rng = np.random.default_rng(0)
        for key in rng.random(100):
            index.insert(float(key))
        record, lookups = index.exact_match(0.123456789)
        assert record is None
        assert lookups >= 1
