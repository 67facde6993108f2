"""Tests for the raw-DHT baseline (the DST half left with the module)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import NaiveIndex
from repro.dht import LocalDHT

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


class TestNaive:
    def test_exact_match_is_one_lookup(self):
        naive = NaiveIndex(LocalDHT(8, 0))
        naive.insert(0.42, "v")
        record, cost = naive.exact_match(0.42)
        assert record.value == "v" and cost == 1
        record, cost = naive.exact_match(0.43)
        assert record is None and cost == 1

    @given(st.lists(unit_floats, min_size=0, max_size=100, unique=True))
    def test_range_scan_matches_bruteforce(self, keys):
        dht = LocalDHT(16, 0)
        naive = NaiveIndex(dht)
        for key in keys:
            naive.insert(key)
        records, cost = naive.range_query(0.2, 0.7)
        assert [r.key for r in records] == sorted(
            k for k in keys if 0.2 <= k < 0.7
        )
        assert cost == dht.n_peers  # a broadcast: every peer contacted

    def test_range_cost_scales_with_network(self):
        small = NaiveIndex(LocalDHT(8, 0))
        large = NaiveIndex(LocalDHT(64, 0))
        assert small.range_query(0, 1)[1] == 8
        assert large.range_query(0, 1)[1] == 64
