"""Unit tests for records and leaf buckets (paper §3.1, §3.3)."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import IndexConfig, LHTIndex
from repro.core.bucket import LeafBucket, Record
from repro.core.interval import Range
from repro.core.label import Label, ROOT
from repro.dht import LocalDHT
from repro.errors import KeyOutOfRangeError


class TestRecord:
    def test_key_validation(self):
        Record(0.0)
        Record(0.999999)
        with pytest.raises(KeyOutOfRangeError):
            Record(1.0)
        with pytest.raises(KeyOutOfRangeError):
            Record(-0.5)

    def test_orders_by_key_only(self):
        assert Record(0.1, "b") < Record(0.2, "a")
        assert Record(0.1, "x") == Record(0.1, "x")

    def test_payload_preserved(self):
        assert Record(0.3, {"title": "song"}).value == {"title": "song"}


class TestLeafBucket:
    def test_empty(self):
        bucket = LeafBucket(ROOT)
        assert len(bucket) == 0
        assert bucket.slot_count == 1  # the label occupies one slot
        assert bucket.min_record() is None
        assert bucket.max_record() is None

    def test_add_keeps_sorted(self):
        bucket = LeafBucket(ROOT)
        for key in (0.5, 0.1, 0.9, 0.3):
            bucket.add(Record(key))
        assert [r.key for r in bucket.records] == [0.1, 0.3, 0.5, 0.9]

    def test_add_rejects_foreign_key(self):
        bucket = LeafBucket(Label.parse("#001"))  # [0.25, 0.5)
        bucket.add(Record(0.3))
        with pytest.raises(KeyOutOfRangeError):
            bucket.add(Record(0.7))

    def test_slot_count_and_is_full(self):
        bucket = LeafBucket(ROOT, [Record(0.1), Record(0.2)])
        assert bucket.slot_count == 3
        assert not bucket.is_full(4)
        assert bucket.is_full(3)  # 2 records + label slot = 3

    def test_find_and_remove(self):
        bucket = LeafBucket(ROOT, [Record(0.1, "a"), Record(0.2, "b")])
        assert bucket.find(0.2).value == "b"
        assert bucket.find(0.15) is None
        removed = bucket.remove(0.1)
        assert removed.value == "a"
        assert bucket.remove(0.1) is None
        assert len(bucket) == 1

    def test_contains_key_is_geometric(self):
        # §5's Alg. 2 tests whether the leaf's interval covers δ — it is
        # not a record-membership test.
        bucket = LeafBucket(Label.parse("#001"))
        assert bucket.contains_key(0.3)
        assert not bucket.contains_key(0.6)

    def test_records_in_range(self):
        bucket = LeafBucket(ROOT, [Record(k) for k in (0.1, 0.2, 0.3, 0.4)])
        keys = [r.key for r in bucket.records_in(Range(0.15, 0.35))]
        assert keys == [0.2, 0.3]

    def test_records_in_includes_lower_excludes_upper(self):
        bucket = LeafBucket(ROOT, [Record(0.2), Record(0.4)])
        keys = [r.key for r in bucket.records_in(Range(0.2, 0.4))]
        assert keys == [0.2]

    def test_take_records_in(self):
        bucket = LeafBucket(ROOT, [Record(k) for k in (0.1, 0.3, 0.6, 0.8)])
        taken = bucket.take_records_in(Range(0.5, 1.0))
        assert [r.key for r in taken] == [0.6, 0.8]
        assert [r.key for r in bucket.records] == [0.1, 0.3]

    def test_min_max(self):
        bucket = LeafBucket(ROOT, [Record(0.4), Record(0.1), Record(0.8)])
        assert bucket.min_record().key == 0.1
        assert bucket.max_record().key == 0.8

    def test_relabel(self):
        bucket = LeafBucket(ROOT)
        bucket.label = Label.parse("#00")
        assert bucket.label == Label.parse("#00")

    def test_extend(self):
        bucket = LeafBucket(ROOT)
        bucket.extend([Record(0.5), Record(0.2)])
        assert [r.key for r in bucket.records] == [0.2, 0.5]

    def test_iteration(self):
        bucket = LeafBucket(ROOT, [Record(0.1), Record(0.2)])
        assert [r.key for r in bucket] == [0.1, 0.2]

    @given(st.lists(st.floats(min_value=0.0, max_value=0.999), max_size=40))
    def test_records_in_matches_bruteforce(self, keys: list[float]):
        bucket = LeafBucket(ROOT, [Record(k) for k in keys])
        rng = Range(0.25, 0.75)
        got = sorted(r.key for r in bucket.records_in(rng))
        expect = sorted(k for k in keys if 0.25 <= k < 0.75)
        assert got == expect


unit_keys = st.floats(min_value=0.0, max_value=0.999)


def _endpoints(keys):
    """Bounds that sit on, and one float either side of, stored keys;
    rationals no float equals; and the edges of the key space."""
    pool = [0, 1, 0.5, Fraction(1, 3), Fraction(2, 3), Fraction(1, 2**60)]
    for key in keys[:6]:
        pool += [key, max(0.0, math.nextafter(key, -1.0)), math.nextafter(key, 2.0)]
    return st.sampled_from(pool)


class TestBisectedSlices:
    """``records_in`` / ``take_records_in`` are two bisections and a
    slice; the per-record rational test they replace is the oracle."""

    @given(st.lists(unit_keys, max_size=40), st.data())
    def test_slices_match_the_per_record_oracle(self, keys, data):
        a, b = data.draw(_endpoints(keys)), data.draw(_endpoints(keys))
        lo, hi = min(a, b), max(a, b)
        records = [Record(key, i) for i, key in enumerate(keys)]
        ordered = LeafBucket(ROOT, records).records  # stable: ties by arrival
        inside = [r for r in ordered if lo <= Fraction(r.key) < hi]
        outside = [r for r in ordered if not lo <= Fraction(r.key) < hi]

        def payloads(rs):
            return [(r.key, r.value) for r in rs]

        bucket = LeafBucket(ROOT, records)
        assert payloads(bucket.records_in(Range(lo, hi))) == payloads(inside)
        assert payloads(bucket.take_records_in(Range(lo, hi))) == payloads(inside)
        assert payloads(bucket.records) == payloads(outside)

    @given(st.lists(unit_keys, min_size=3, max_size=3), unit_keys)
    def test_split_moves_what_the_per_record_partition_would(self, keys, pending):
        index = LHTIndex(LocalDHT(n_peers=8, seed=0), IndexConfig(theta_split=4))
        for key in keys:
            index.insert(key)
        event = index.insert(pending).split  # the leaf #0 was full
        children = {
            label: index.dht.peek(str(name))
            for label, name in ((event.local, "#"), (event.remote, "#0"))
        }
        for label, child in children.items():
            assert child.label == label
            mine = sorted(k for k in [*keys, pending] if label.contains(k))
            assert [r.key for r in child.records] == mine
        moved = [k for k in keys if event.remote.contains(k)]
        assert event.records_moved == len(moved)
