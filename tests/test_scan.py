"""Tests for ordered scans (extension)."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import IndexConfig, LHTIndex
from repro.core.scan import scan_buckets
from repro.dht import LocalDHT

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


def _build(keys, theta=4, seed=0):
    index = LHTIndex(
        LocalDHT(16, seed), IndexConfig(theta_split=theta, max_depth=30)
    )
    for key in keys:
        index.insert(key)
    return index


class TestScan:
    @given(st.lists(unit_floats, min_size=0, max_size=300))
    def test_scan_yields_sorted_records(self, keys):
        index = _build(keys)
        scanned = [r.key for r in index.scan()]
        assert scanned == sorted(keys)

    def test_scan_buckets_in_tree_order(self):
        rng = np.random.default_rng(0)
        index = _build([float(k) for k in rng.random(400)])
        labels = [b.label for b in scan_buckets(index.dht, index.config)]
        lows = [l.interval.low for l in labels]
        assert lows == sorted(lows)
        assert len(labels) == index.leaf_count

    def test_scan_cost_one_lookup_per_leaf(self):
        rng = np.random.default_rng(1)
        index = _build([float(k) for k in rng.random(400)])
        before = index.dht.metrics.snapshot()
        leaves = sum(1 for _ in scan_buckets(index.dht, index.config))
        delta = index.dht.metrics.since(before)
        # one get per leaf, plus at most one repair per step
        assert leaves <= delta.dht_lookups <= 2 * leaves

    def test_scan_empty_index(self):
        index = _build([])
        assert list(index.scan()) == []
