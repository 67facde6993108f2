"""Tests for the bucket wire form.

A ``LeafBucket`` (and a ``PHTNode``) crosses the DHT boundary as what
``__reduce__`` says: the label bits and the key and value columns.
Decode goes back through the constructors, so a hand-made or corrupted
payload is rejected with a typed error, never half-accepted.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.pht.node import PHTNode
from repro.core import Label, LeafBucket, Record
from repro.errors import KeyOutOfRangeError, LabelError, WireFormatError

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.text(max_size=20),
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)
label_bits = st.text(alphabet="01", max_size=10).map("0".__add__)
#: Duplicate keys are likely (sampled from few), and [] is the empty bucket.
items = st.lists(
    st.tuples(st.one_of(unit_floats, st.sampled_from([0.0, 0.25, 0.5])), payloads),
    max_size=30,
)


def _wire(value):
    """(constructor, wire tuple) exactly as pickle sees them."""
    return value.__reduce__()


class TestRecordRoundtrip:
    @given(unit_floats, payloads)
    def test_pickle_roundtrip(self, key, value):
        record = Record(key, value)
        restored = pickle.loads(pickle.dumps(record))
        assert (restored.key, restored.value) == (key, value)

    def test_malformed(self):
        decode, (bits, _, _) = _wire(LeafBucket(Label("0")))
        with pytest.raises(KeyOutOfRangeError):
            decode(bits, [1.0], [None])
        with pytest.raises(KeyOutOfRangeError):
            decode(bits, [-0.5], [None])


class TestBucketRoundtrip:
    @given(label_bits, items)
    def test_wire_roundtrip(self, bits, items):
        bucket = LeafBucket(Label(bits), [Record(k, v) for k, v in items])
        restored = pickle.loads(pickle.dumps(bucket))
        assert restored == bucket and restored is not bucket
        assert restored.label == bucket.label
        assert [(r.key, r.value) for r in restored] == [
            (r.key, r.value) for r in bucket
        ]

    @given(label_bits, st.booleans(), items, st.none() | label_bits)
    def test_pht_node_roundtrip(self, bits, is_leaf, items, link_bits):
        link = None if link_bits is None else Label(link_bits)
        node = PHTNode(
            Label(bits), is_leaf, [Record(k, v) for k, v in items], link, None
        )
        restored = pickle.loads(pickle.dumps(node))
        assert restored == node and restored is not node
        assert _wire(restored)[1] == _wire(node)[1]
        assert node != PHTNode(Label(bits), not is_leaf, list(node), link, None)
        assert node != PHTNode(Label(bits), is_leaf, list(node), link, Label("0"))

    @given(label_bits, items)
    def test_deepcopy_is_equal_and_independent(self, bits, items):
        bucket = LeafBucket(Label(bits), [Record(k, [v]) for k, v in items])
        clone = copy.deepcopy(bucket)
        assert clone == bucket
        for record in clone:
            record.value.append("mutated")
        clone.label = bucket.label.left_child
        assert all(len(record.value) == 1 for record in bucket)
        assert bucket.label == Label(bits)

    def test_equality_sees_payloads_and_buckets_do_not_hash(self):
        a = LeafBucket(Label("01"), [Record(0.6, "x")])
        assert a == LeafBucket(Label("01"), [Record(0.6, "x")])
        assert a != LeafBucket(Label("01"), [Record(0.6, "y")])  # Record == ignores it
        assert a != LeafBucket(Label("011"), [Record(0.6, "x")])
        assert a != LeafBucket(Label("01"))
        assert a != "not a bucket"
        for value in (a, PHTNode(Label("01"))):
            with pytest.raises(TypeError):
                hash(value)

    def test_malformed_payloads(self):
        decode, _ = _wire(LeafBucket(Label("0")))
        with pytest.raises(LabelError):
            decode("1", [], [])  # bits must start at the root edge
        with pytest.raises(LabelError):
            decode("0x1", [], [])
        with pytest.raises(WireFormatError):
            decode("0", [0.1, 0.2], ["only one value"])  # no silent truncation
        node_decode, _ = _wire(PHTNode(Label("0")))
        with pytest.raises(WireFormatError):
            node_decode("0", True, [0.1], [], None, None)
        with pytest.raises(LabelError):
            node_decode("0", True, [], [], "2", None)
        with pytest.raises(KeyOutOfRangeError):
            node_decode("0", True, [1.5], [None], None, None)

    def test_canonical_bytes_stable(self):
        bucket = LeafBucket(Label("01"), [Record(0.6, "x")])
        assert pickle.dumps(bucket) == pickle.dumps(bucket)
        assert pickle.dumps(pickle.loads(pickle.dumps(bucket))) == pickle.dumps(bucket)

    def test_records_resorted_on_load(self):
        decode, _ = _wire(LeafBucket(Label("0")))
        bucket = decode("0", [0.9, 0.1], ["late", "early"])
        assert [(r.key, r.value) for r in bucket] == [(0.1, "early"), (0.9, "late")]

    def test_label_ships_bits_only(self):
        label = Label("0110")
        label.interval  # populate the cache a pickled label must not carry
        assert label.__reduce__() == (Label, ("0110",))
        assert pickle.loads(pickle.dumps(label)) == label
