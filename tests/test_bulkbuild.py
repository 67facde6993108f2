"""The sorted bulk-build fast path (repro.core.bulkbuild).

Contract under test: ``bulk_load(items, fast=True)`` leaves the DHT in
exactly the state the incremental algorithm produces for the *sorted*
input — wire-identical leaf buckets under the same keys — while issuing
exactly one routed put per final leaf and moving zero records.  Query
answers therefore match the incremental build for any insertion order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pht import PHTIndex
from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.core.stats import IndexInspector
from repro.dht.local import LocalDHT
from repro.experiments.common import SUBSTRATES


def _state(dht) -> dict[str, tuple]:
    """DHT key -> the stored bucket's (or node's) wire tuple.

    Not its pickle bytes: pickle memoizes shared payload objects, so
    bytes depend on object identity the two build paths need not share.
    """
    return {key: dht.peek(key).__reduce__()[1] for key in dht.keys()}


def _pair(theta: int = 8, depth: int = 12, scheme: str = "lht"):
    """Two identical index/DHT stacks, one per build path."""
    cls = LHTIndex if scheme == "lht" else PHTIndex
    config = IndexConfig(theta_split=theta, max_depth=depth)
    fast = cls(LocalDHT(n_peers=16, seed=3), config)
    slow = cls(LocalDHT(n_peers=16, seed=3), config)
    return fast, slow


keys_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32),
    max_size=120,
)


class TestLHTEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(keys=keys_lists)
    def test_fast_matches_incremental_on_sorted_input(self, keys):
        fast, slow = _pair()
        fast.bulk_load(list(keys), fast=True)
        slow.bulk_load(sorted(keys))
        assert _state(fast.dht) == _state(slow.dht)
        assert fast.leaf_count == slow.leaf_count
        assert fast.record_count == slow.record_count

    @settings(max_examples=40, deadline=None)
    @given(keys=keys_lists)
    def test_query_answers_match_any_insertion_order(self, keys):
        fast, slow = _pair()
        fast.bulk_load(list(keys), fast=True)
        slow.bulk_load(list(keys))  # unsorted incremental
        for key in keys:
            frec, _ = fast.exact_match(key)
            srec, _ = slow.exact_match(key)
            assert frec is not None and srec is not None
            assert frec.key == srec.key
        fr = fast.range_query(0.2, 0.8)
        sr = slow.range_query(0.2, 0.8)
        assert [r.key for r in fr.records] == [r.key for r in sr.records]

    def test_layered_loads_compose(self):
        """A fast load on top of an already-built index must equal the
        incremental replay of the same sorted batch."""
        rng = np.random.default_rng(7)
        first = [float(k) for k in rng.random(200)]
        second = [float(k) for k in rng.random(200)]
        fast, slow = _pair(theta=16, depth=16)
        fast.bulk_load(first)
        slow.bulk_load(first)
        fast.bulk_load(second, fast=True)
        slow.bulk_load(sorted(second))
        assert _state(fast.dht) == _state(slow.dht)

    def test_empty_load_is_free(self):
        fast, _ = _pair()
        before = fast.dht.metrics.snapshot()
        assert fast.bulk_load([], fast=True) == 0
        spent = fast.dht.metrics.snapshot() - before
        assert spent.puts == 0


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
class TestSubstrateIndependence:
    def test_one_put_per_leaf_zero_moves(self, substrate):
        rng = np.random.default_rng(11)
        keys = [float(k) for k in rng.random(600)]
        config = IndexConfig(theta_split=24, max_depth=16)
        fast = LHTIndex(SUBSTRATES[substrate](16, 5), config)
        slow = LHTIndex(SUBSTRATES[substrate](16, 5), config)

        before = fast.dht.metrics.snapshot()
        fast.bulk_load(keys, fast=True)
        spent = fast.dht.metrics.snapshot() - before
        assert spent.puts == fast.leaf_count
        assert spent.records_moved == 0

        slow.bulk_load(sorted(keys))
        assert _state(fast.dht) == _state(slow.dht)
        IndexInspector(fast.dht).verify()


class TestPHTEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(keys=keys_lists)
    def test_fast_matches_incremental_on_sorted_input(self, keys):
        fast, slow = _pair(scheme="pht")
        fast.bulk_load(list(keys), fast=True)
        slow.bulk_load(sorted(keys))
        assert _state(fast.dht) == _state(slow.dht)

    def test_leaf_chain_links_survive_fast_build(self):
        rng = np.random.default_rng(13)
        keys = [float(k) for k in rng.random(400)]
        fast, slow = _pair(theta=16, depth=16, scheme="pht")
        fast.bulk_load(keys, fast=True)
        slow.bulk_load(sorted(keys))
        assert _state(fast.dht) == _state(slow.dht)
        # The chain must answer range queries identically.
        fr = fast.range_query_sequential(0.1, 0.6)
        sr = slow.range_query_sequential(0.1, 0.6)
        assert [r.key for r in fr.records] == [r.key for r in sr.records]
