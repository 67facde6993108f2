"""Tests for LHT range queries (paper §6, Algs. 3-4)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    IndexConfig,
    IndexInspector,
    Label,
    LHTIndex,
    Range,
    Record,
    ROOT,
    compute_lca,
)
from repro.dht import LocalDHT
from repro.errors import LabelError

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


def _build(keys, theta=4, depth=40, seed=0):
    index = LHTIndex(
        LocalDHT(n_peers=16, seed=seed),
        IndexConfig(theta_split=theta, max_depth=depth),
    )
    for key in keys:
        index.insert(key)
    return index


class TestComputeLCA:
    def test_paper_example(self):
        # §6.2: any leaf receiving [0.2, 0.6) computes the LCA to be #0.
        assert compute_lca(Range(0.2, 0.6), 20) == ROOT

    def test_tight_dyadic_range(self):
        # [0.25, 0.5) is exactly node #001.
        assert compute_lca(Range(0.25, 0.5), 20) == Label.parse("#001")

    def test_narrow_range_descends(self):
        lca = compute_lca(Range(0.30, 0.31), 20)
        assert lca.depth > 3
        assert lca.interval.low <= Range(0.30, 0.31).lo
        assert Range(0.30, 0.31).hi <= lca.interval.high

    def test_depth_cap(self):
        lca = compute_lca(Range(0.3, 0.3000001), 5)
        assert lca.depth <= 5

    @given(unit_floats, unit_floats)
    def test_lca_contains_range(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            return
        lca = compute_lca(Range(lo, hi), 30)
        assert lca.interval.low <= Range(lo, hi).lo
        assert Range(lo, hi).hi <= lca.interval.high


class TestCorrectness:
    def test_empty_range(self):
        index = _build([0.1, 0.2])
        result = index.range_query(0.5, 0.5)
        assert result.records == ()
        assert result.dht_lookups == 0

    def test_invalid_range(self):
        index = _build([0.1])
        with pytest.raises(LabelError):
            index.range_query(0.6, 0.5)

    def test_non_finite_bounds_are_label_errors(self):
        """Typed like every other invalid range — not the ValueError /
        OverflowError a Fraction conversion used to leak."""
        index = _build([0.1])
        for lo, hi in ((float("nan"), 0.5), (0.2, float("nan")), (0.2, float("inf"))):
            with pytest.raises(LabelError):
                index.range_query(lo, hi)

    def test_full_range_returns_everything(self):
        keys = [0.05, 0.15, 0.35, 0.55, 0.75, 0.95, 0.65, 0.25]
        index = _build(keys, theta=4)
        result = index.range_query(0.0, 1.0)
        assert result.keys == sorted(keys)

    def test_range_within_single_leaf(self):
        index = _build([0.1, 0.9])  # single-leaf tree (θ=4, 2 records)
        result = index.range_query(0.3, 0.4)
        assert result.records == ()
        result = index.range_query(0.05, 0.5)
        assert result.keys == [0.1]

    def test_bounds_are_half_open(self):
        index = _build([0.2, 0.4, 0.6])
        result = index.range_query(0.2, 0.6)
        assert result.keys == [0.2, 0.4]

    def test_range_at_space_edges(self):
        keys = [0.0, 0.001, 0.999, 0.5]
        index = _build(keys)
        assert index.range_query(0.0, 0.01).keys == [0.0, 0.001]
        assert index.range_query(0.99, 1.0).keys == [0.999]

    def test_dyadic_aligned_range(self):
        rng = np.random.default_rng(0)
        keys = [float(k) for k in rng.random(300)]
        index = _build(keys, theta=4)
        result = index.range_query(0.25, 0.5)
        assert result.keys == sorted(k for k in keys if 0.25 <= k < 0.5)

    @given(
        st.lists(unit_floats, min_size=1, max_size=250),
        unit_floats,
        unit_floats,
    )
    def test_matches_bruteforce(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        index = _build(keys, theta=4)
        result = index.range_query(lo, hi)
        assert result.keys == sorted(k for k in keys if lo <= k < hi)

    @given(st.lists(unit_floats, min_size=50, max_size=200))
    def test_gaussian_like_clusters(self, keys):
        # skew all keys into a narrow band to force deep lopsided trees
        squeezed = [0.4 + k * 0.01 for k in keys]
        index = _build(squeezed, theta=4)
        result = index.range_query(0.4, 0.405)
        assert result.keys == sorted(k for k in squeezed if 0.4 <= k < 0.405)


def _neighbours(x):
    """``x`` and the floats on either side of it (of its rounding, for a
    rational that is no float), kept inside ``[0, 1]``."""
    f = float(x)
    around = (x, math.nextafter(f, -1.0), f, math.nextafter(f, 2.0))
    return [v for v in around if 0 <= v <= 1]


class TestExactness:
    """The float geometry answers exactly what Fraction arithmetic would."""

    @staticmethod
    def _check(index, keys, lo, hi):
        result = index.range_query(lo, hi)
        assert result.keys == sorted(k for k in keys if lo <= Fraction(k) < hi)
        assert result.collect_calls == result.buckets_visited
        if result.buckets_visited >= 2:
            assert result.dht_lookups <= result.buckets_visited + 3

    @given(
        st.lists(unit_floats, min_size=1, max_size=120),
        st.sampled_from([12, 40, 60]),
        st.data(),
    )
    def test_adversarial_endpoints_match_the_rational_oracle(self, keys, depth, data):
        index = _build(keys, theta=4, depth=depth)
        pool = [0, 1, Fraction(1, 2**55)]
        pool += [Fraction(1, 3), Fraction(2, 3), Fraction(5, 7)]
        for key in keys[:8]:
            pool += _neighbours(key)
        for bucket in list(IndexInspector(index.dht).buckets().values())[:8]:
            pool += _neighbours(bucket.label.interval.low)
            pool += _neighbours(bucket.label.interval.high)
        endpoints = st.sampled_from(pool)
        for _ in range(12):
            a, b = data.draw(endpoints), data.draw(endpoints)
            self._check(index, keys, min(a, b), max(a, b))
        same = data.draw(endpoints)
        self._check(index, keys, same, same)
        self._check(index, keys, data.draw(endpoints), 1)

    def test_bounds_no_float_equals(self):
        """Equal keys split a leaf down to ``max_depth = 60``, where a
        bucket bound needs more than 53 bits: the bound stays exact (a
        Fraction) and the sweep neither skips nor revisits a leaf."""
        near = [math.nextafter(0.7, 0.0), math.nextafter(0.7, 1.0)]
        keys = [0.7] * 70 + near + [0.1, 0.3, 0.69, 0.71]
        index = _build(keys, theta=4, depth=60)
        bounds = set()
        for bucket in IndexInspector(index.dht).buckets().values():
            bounds |= {bucket.label.interval.low, bucket.label.interval.high}
        assert any(type(bound) is Fraction for bound in bounds)
        pool = sorted(bounds | {0.7, Fraction(7, 10), Fraction(1, 3), *near})
        for i, lo in enumerate(pool):
            for hi in pool[i:]:
                self._check(index, keys, lo, hi)


class TestNoPerRecordWork:
    """Counts that keep the range path's speed from rotting: no wall
    clock, just "this is never called" (docs/performance.md, "Range
    geometry without Fractions")."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count Fraction constructions and record-vs-record comparisons."""
        calls = {"Fraction": 0, "Record.__lt__": 0}
        new, less = Fraction.__new__, Record.__lt__

        def counting_new(cls, *args, **kwargs):
            calls["Fraction"] += 1
            return new(cls, *args, **kwargs)

        def counting_less(self, other):
            calls["Record.__lt__"] += 1
            return less(self, other)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        monkeypatch.setattr(Record, "__lt__", counting_less)
        return calls

    def test_float_range_builds_no_fraction_and_compares_no_records(self, calls):
        index = LHTIndex(LocalDHT(n_peers=16, seed=0), IndexConfig())
        rng = np.random.default_rng(4)
        index.bulk_load([float(k) for k in rng.random(1 << 12)])
        assert calls == {"Fraction": 0, "Record.__lt__": 0}  # bulk load too
        result = index.range_query(0.3, 0.55)
        assert result.buckets_visited >= 8 and len(result.records) > 900
        assert calls == {"Fraction": 0, "Record.__lt__": 0}

    def test_split_builds_no_fraction(self, calls):
        index = _build([0.1, 0.2, 0.6], theta=4)  # one full leaf
        assert index.insert(0.7).split is not None
        assert calls == {"Fraction": 0, "Record.__lt__": 0}


class TestCostAccounting:
    @given(
        st.lists(unit_floats, min_size=20, max_size=250),
        unit_floats,
        unit_floats,
    )
    def test_decomposition_is_disjoint(self, keys, a, b):
        """Each leaf receives exactly one subrange: collection attempts
        equal distinct buckets visited (stronger than deduplication)."""
        lo, hi = min(a, b), max(a, b)
        index = _build(keys, theta=4)
        result = index.range_query(lo, hi)
        assert result.collect_calls == result.buckets_visited

    def test_buckets_visited_counts_distinct(self):
        rng = np.random.default_rng(1)
        keys = [float(k) for k in rng.random(500)]
        index = _build(keys, theta=4)
        result = index.range_query(0.1, 0.6)
        assert result.buckets_visited >= 1
        assert result.parallel_steps <= result.dht_lookups

    def test_latency_not_worse_than_bandwidth(self):
        rng = np.random.default_rng(2)
        keys = [float(k) for k in rng.random(1000)]
        index = _build(keys, theta=8)
        for _ in range(50):
            lo = float(rng.random() * 0.8)
            result = index.range_query(lo, lo + 0.15)
            assert 0 < result.parallel_steps <= result.dht_lookups

    def test_wide_range_latency_sublinear(self):
        """Latency must grow far slower than the bucket count (the whole
        point of parallel forwarding — cf. Fig. 10)."""
        rng = np.random.default_rng(3)
        keys = [float(k) for k in rng.random(3000)]
        index = _build(keys, theta=8)
        result = index.range_query(0.05, 0.95)
        assert result.buckets_visited > 50
        assert result.parallel_steps < result.buckets_visited / 4
