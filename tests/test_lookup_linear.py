"""Tests for the linear-lookup ablation variants (LHT and PHT)."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.pht import PHTIndex
from repro.core import IndexConfig, LHTIndex, lht_lookup, lht_lookup_linear
from repro.dht import LocalDHT

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


def _lht(keys, theta=4, depth=20):
    index = LHTIndex(LocalDHT(16, 0), IndexConfig(theta_split=theta, max_depth=depth))
    for key in keys:
        index.insert(key)
    return index


class TestLHTLinear:
    @given(st.lists(unit_floats, min_size=1, max_size=250), unit_floats)
    def test_agrees_with_binary_search(self, keys, probe):
        index = _lht(keys)
        binary = lht_lookup(index.dht, index.config, probe)
        linear = lht_lookup_linear(index.dht, index.config, probe)
        assert linear.found and binary.found
        assert linear.bucket.label == binary.bucket.label
        assert linear.name == binary.name

    def test_linear_probes_never_fail(self):
        """Every linear probe hits an existing internal node's name."""
        rng = np.random.default_rng(0)
        index = _lht([float(k) for k in rng.random(500)])
        for probe in rng.random(100):
            result = lht_lookup_linear(index.dht, index.config, float(probe))
            assert result.found
            for name in result.probed:
                assert index.dht.peek(str(name)) is not None

    def test_binary_beats_linear_on_deep_trees(self):
        rng = np.random.default_rng(1)
        index = _lht([float(k) for k in rng.random(4000)], theta=4, depth=24)
        probes = [float(k) for k in rng.random(300)]
        binary_cost = sum(
            lht_lookup(index.dht, index.config, p).dht_lookups for p in probes
        )
        linear_cost = sum(
            lht_lookup_linear(index.dht, index.config, p).dht_lookups
            for p in probes
        )
        assert binary_cost < linear_cost

    def test_single_leaf(self):
        index = _lht([0.5])
        result = lht_lookup_linear(index.dht, index.config, 0.3)
        assert result.found and result.dht_lookups == 1


class TestPHTLinear:
    @given(st.lists(unit_floats, min_size=1, max_size=200), unit_floats)
    def test_agrees_with_binary_search(self, keys, probe):
        index = PHTIndex(
            LocalDHT(16, 0), IndexConfig(theta_split=4, max_depth=20)
        )
        for key in keys:
            index.insert(key)
        binary = index.lookup(probe)
        linear = index.lookup_linear(probe)
        assert binary.found and linear.found
        assert binary.node.label == linear.node.label

    def test_linear_cost_equals_leaf_length(self):
        rng = np.random.default_rng(2)
        index = PHTIndex(
            LocalDHT(16, 0), IndexConfig(theta_split=8, max_depth=20)
        )
        for key in rng.random(800):
            index.insert(float(key))
        linear_cost = binary_cost = 0
        for probe in rng.random(50):
            result = index.lookup_linear(float(probe))
            assert result.dht_lookups == result.node.label.length - 1
            linear_cost += result.dht_lookups
            binary_cost += index.lookup(float(probe)).dht_lookups
        assert binary_cost < linear_cost  # E16: the search half of the saving
