"""Tests for the Tapestry substrate and the order-preserving baseline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.stats import gini_coefficient
from repro.baselines.orderpreserving import OrderPreservingIndex
from repro.core import IndexConfig, IndexInspector, LHTIndex
from repro.dht.hashing import hash_key
from repro.dht.tapestry import TapestryDHT
from repro.errors import ConfigurationError
from repro.workloads import make_keys


class TestTapestryRouting:
    def test_surrogate_root_is_deterministic(self):
        dht = TapestryDHT(n_peers=30, seed=0)
        for i in range(100):
            key_id = hash(f"k{i}") & 0xFFFFFFFF
            assert dht.surrogate_root(key_id) == dht.surrogate_root(key_id)

    def test_route_agrees_with_surrogate_root(self):
        """Distributed digit-by-digit forwarding must land on the same
        node the global surrogate rule names — from any start."""
        dht = TapestryDHT(n_peers=40, seed=1)
        for i in range(150):
            key = f"k{i}"
            owner = dht.peer_of(key)
            key_id = hash_key(key, dht.id_bits)
            for start in list(dht._nodes)[::7]:
                found, _ = dht.route_id(start, key_id)
                assert found == owner, key

    def test_put_get_remove(self):
        dht = TapestryDHT(n_peers=25, seed=2)
        dht.put("a", "x")
        assert dht.get("a") == "x"
        assert dht.get("missing") is None
        assert dht.remove("a") == "x"

    def test_hops_logarithmic(self):
        dht = TapestryDHT(n_peers=256, seed=3)
        total = 0
        for i in range(100):
            _, hops = dht.route(f"k{i}")
            total += hops
        # O(log_16 N) ≈ 2 for 256 nodes; generous bound.
        assert total / 100 <= 2 * math.log2(256) / 4 + 3

    def test_single_node(self):
        dht = TapestryDHT(n_peers=1, seed=4)
        dht.put("a", 1)
        assert dht.get("a") == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TapestryDHT(n_peers=0)
        with pytest.raises(ConfigurationError):
            TapestryDHT(n_peers=4, id_bits=30, b=4)

    def test_local_write(self):
        dht = TapestryDHT(n_peers=8, seed=5)
        dht.put("k", [1])
        dht.local_write("k", [1, 2])
        assert dht.peek("k") == [1, 2]


class TestLHTOverTapestry:
    def test_index_battery(self):
        dht = TapestryDHT(n_peers=24, seed=0)
        index = LHTIndex(dht, IndexConfig(theta_split=10, max_depth=20))
        keys = [float(k) for k in np.random.default_rng(0).random(400)]
        for key in keys:
            index.insert(key)
        IndexInspector(dht).verify()
        assert index.range_query(0.3, 0.7).keys == sorted(
            k for k in keys if 0.3 <= k < 0.7
        )
        assert index.min_query().dht_lookups == 1


class TestOrderPreserving:
    def test_insert_and_exact_match(self):
        index = OrderPreservingIndex(n_peers=16)
        index.insert(0.42, "v")
        record, cost = index.exact_match(0.42)
        assert record.value == "v" and cost == 1
        record, _ = index.exact_match(0.43)
        assert record is None

    def test_range_walks_contiguous_arc(self):
        index = OrderPreservingIndex(n_peers=10)
        keys = [i / 100 for i in range(100)]
        for key in keys:
            index.insert(key)
        records, lookups = index.range_query(0.25, 0.55)
        assert [r.key for r in records] == [k for k in keys if 0.25 <= k < 0.55]
        # [0.25, 0.55) touches arc owners 2, 3, 4, 5 only
        assert lookups == 4

    def test_empty_range(self):
        index = OrderPreservingIndex(n_peers=8)
        assert index.range_query(0.3, 0.3) == ([], 0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OrderPreservingIndex(n_peers=0)

    def test_load_tracks_data_skew(self):
        """The §2 trade-off, measured: order-preserving placement is
        balanced for uniform data but inherits the skew of pareto data,
        while LHT's hashed-bucket placement is skew-independent."""
        rng_u = np.random.default_rng(0)
        rng_p = np.random.default_rng(0)
        uniform = OrderPreservingIndex(n_peers=128)
        pareto = OrderPreservingIndex(n_peers=128)
        for key in make_keys("uniform", 8000, rng_u):
            uniform.insert(float(key))
        for key in make_keys("pareto", 8000, rng_p):
            pareto.insert(float(key))
        gini_uniform = gini_coefficient(list(uniform.peer_loads().values()))
        gini_pareto = gini_coefficient(list(pareto.peer_loads().values()))
        assert gini_uniform < 0.2
        assert gini_pareto > 2 * gini_uniform
