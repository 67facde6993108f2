"""End-to-end integration tests across substrates, schemes, and claims.

These tie the whole stack together: LHT over a *routed* overlay with a
mixed workload, verified against the centralized oracle; substrate
independence of index-level costs; and the paper's headline comparative
claims, asserted quantitatively.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pht import PHTIndex
from repro.core import (
    IndexConfig,
    IndexInspector,
    LHTIndex,
    ReferenceTree,
)
from repro.dht import ChordDHT, KademliaDHT, LocalDHT, PastryDHT


@pytest.fixture(scope="module")
def workload() -> list[float]:
    rng = np.random.default_rng(99)
    return [float(k) for k in rng.random(1200)]


class TestEndToEndOverChord:
    def test_mixed_workload_over_routed_overlay(self, workload):
        config = IndexConfig(theta_split=10, max_depth=20, merge_enabled=True)
        dht = ChordDHT(n_peers=30, seed=0)
        index = LHTIndex(dht, config)
        oracle = ReferenceTree(config)
        rng = np.random.default_rng(0)
        live: list[float] = []
        for key in workload:
            if live and rng.random() < 0.25:
                victim = live.pop(int(rng.integers(0, len(live))))
                assert index.delete(victim).deleted
                oracle.delete(victim)
            else:
                index.insert(key, value=f"v{key}")
                oracle.insert(key)
                live.append(key)
        IndexInspector(dht).verify()
        oracle.check_invariants()
        assert IndexInspector(dht).all_keys() == oracle.all_keys()

        # queries
        result = index.range_query(0.25, 0.75)
        assert result.keys == oracle.keys_in_range(0.25, 0.75)
        assert index.min_query().record.key == min(live)
        assert index.max_query().record.key == max(live)
        record, _ = index.exact_match(live[0])
        assert record.value == f"v{live[0]}"


class TestSubstrateIndependence:
    def test_index_level_costs_identical(self, workload):
        """Paper footnote 5: the measured counts are independent of the
        underlying network."""
        config = IndexConfig(theta_split=10, max_depth=20)
        traces = []
        for dht in (
            LocalDHT(16, 0),
            ChordDHT(n_peers=16, seed=0),
            KademliaDHT(n_peers=16, seed=0),
            PastryDHT(n_peers=16, seed=0),
        ):
            index = LHTIndex(dht, config)
            for key in workload[:600]:
                index.insert(key)
            lookup_costs = [
                index.lookup(k).dht_lookups for k in workload[600:700]
            ]
            range_costs = [
                index.range_query(0.1 * i, 0.1 * i + 0.07).dht_lookups
                for i in range(9)
            ]
            traces.append(
                (
                    index.ledger.maintenance_lookups,
                    index.ledger.maintenance_records_moved,
                    lookup_costs,
                    range_costs,
                )
            )
        assert all(t == traces[0] for t in traces[1:])


class TestPaperClaims:
    """The abstract's quantitative claims, asserted end to end."""

    @pytest.fixture(scope="class")
    def built(self):
        rng = np.random.default_rng(5)
        keys = [float(k) for k in rng.random(6000)]
        config = IndexConfig(theta_split=20, max_depth=20)
        lht = LHTIndex(LocalDHT(32, 0), config)
        pht = PHTIndex(LocalDHT(32, 0), config)
        lht.bulk_load(keys)
        pht.bulk_load(keys)
        return lht, pht, keys

    def test_maintenance_saving_between_50_and_75_percent(self, built):
        lht, pht, _ = built
        from repro.costmodel import LinearCostModel

        for gamma in (0.1, 1.0, 10.0, 100.0):
            model = LinearCostModel(record_move_cost=gamma / 20, lookup_cost=1)
            saving = model.measured_saving_ratio(lht.ledger, pht.ledger)
            assert 0.45 <= saving <= 0.80

    def test_lookup_beats_pht(self, built):
        lht, pht, keys = built
        rng = np.random.default_rng(6)
        probes = [float(k) for k in rng.random(300)]
        lht_cost = sum(lht.lookup(k).dht_lookups for k in probes)
        pht_cost = sum(pht.lookup(k).dht_lookups for k in probes)
        assert lht_cost < pht_cost

    def test_range_query_beats_pht_parallel_latency(self, built):
        lht, pht, _ = built
        rng = np.random.default_rng(7)
        lht_lat = pht_lat = pht_bw = lht_bw = seq_lat = seq_bw = 0
        for _ in range(40):
            lo = float(rng.random() * 0.9)
            hi = lo + 0.08
            lht_res = lht.range_query(lo, hi)
            par_res = pht.range_query_parallel(lo, hi)
            seq_res = pht.range_query_sequential(lo, hi)
            lht_lat += lht_res.parallel_steps
            pht_lat += par_res.parallel_steps
            seq_lat += seq_res.parallel_steps
            lht_bw += lht_res.dht_lookups
            pht_bw += par_res.dht_lookups
            seq_bw += seq_res.dht_lookups
        assert lht_lat < pht_lat < seq_lat  # Fig. 10's ordering
        # Fig. 9: the parallel trie sweep pays the most bandwidth.
        assert lht_bw < pht_bw and seq_bw < pht_bw

    def test_range_query_bandwidth_near_optimal(self, built):
        lht, _, keys = built
        rng = np.random.default_rng(8)
        for _ in range(40):
            lo = float(rng.random() * 0.85)
            result = lht.range_query(lo, lo + 0.1)
            optimal = result.buckets_visited
            assert result.dht_lookups <= optimal + 4

    def test_identical_answers_across_schemes(self, built):
        lht, pht, keys = built
        for lo, hi in ((0.0, 0.05), (0.3, 0.6), (0.95, 1.0)):
            expected = sorted(k for k in keys if lo <= k < hi)
            assert lht.range_query(lo, hi).keys == expected
            assert pht.range_query_sequential(lo, hi).keys == expected
            assert pht.range_query_parallel(lo, hi).keys == expected
