"""Tests for the bucket wire form.

A ``LeafBucket`` (and a ``PHTNode``) crosses the DHT boundary as what
``__reduce__`` says: the label bits and the key and value columns.
Decode rebuilds the label through its constructor and adopts the two
columns after one check, so a hand-made or corrupted payload is
rejected with a typed error, never half-accepted; and a decoded store,
which keeps the columns instead of building ``Record`` objects, answers
every query and mutation exactly as the store it was pickled from.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.pht.node import PHTNode
from repro.core import Label, LeafBucket, Range, Record
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

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_nan_anywhere_in_the_key_column_is_rejected(self, at):
        decode, _ = _wire(LeafBucket(Label("0")))
        keys = [0.1, 0.2, 0.3, 0.4, 0.5]
        keys[at] = float("nan")
        with pytest.raises(KeyOutOfRangeError):
            decode("0", keys, [None] * len(keys))
        node_decode, _ = _wire(PHTNode(Label("0")))
        with pytest.raises(KeyOutOfRangeError):
            node_decode("0", True, keys, [None] * len(keys), None, None)

    @pytest.mark.parametrize(
        "keys, values",
        [((0.1, 0.2), [1, 2]), ([0.1, 0.2], (1, 2)), ("ab", ["a", "b"]), (None, [])],
    )
    def test_non_list_columns_are_rejected(self, keys, values):
        decode, _ = _wire(LeafBucket(Label("0")))
        with pytest.raises(WireFormatError):
            decode("0", keys, values)
        node_decode, _ = _wire(PHTNode(Label("0")))
        with pytest.raises(WireFormatError):
            node_decode("0", True, keys, values, None, None)

    def test_records_resorted_on_load(self):
        decode, _ = _wire(LeafBucket(Label("0")))
        bucket = decode("0", [0.9, 0.1], ["late", "early"])
        assert [(r.key, r.value) for r in bucket] == [(0.1, "early"), (0.9, "late")]

    def test_label_ships_bits_only(self):
        label = Label("0110")
        label.interval  # populate the cache a pickled label must not carry
        assert label.__reduce__() == (Label, ("0110",))
        assert pickle.loads(pickle.dumps(label)) == label


def _answer(result):
    """A store's answer with payloads made visible (``Record.__eq__``
    ignores them)."""
    if isinstance(result, Record):
        return (result.key, result.value)
    if isinstance(result, list):
        return [_answer(item) for item in result]
    return result


def _inside(label):
    """``[0, 1)`` mapped onto the label's interval (exactly: its width
    is a power of two), so generated keys and ranges land in the store."""
    low = float(label.interval.low)
    width = float(label.interval.high) - low
    return lambda u: low + u * width


spans = st.tuples(unit_floats, unit_floats).map(sorted)
bucket_steps = st.one_of(
    st.tuples(st.just("add"), unit_floats, payloads),
    st.tuples(st.sampled_from(["remove", "find"]), unit_floats),
    st.tuples(st.sampled_from(["records_in", "take_records_in"]), spans),
    st.tuples(st.sampled_from(["min_record", "max_record"])),
)
node_steps = st.one_of(
    st.tuples(st.just("add"), unit_floats, payloads),
    st.tuples(st.sampled_from(["remove", "find"]), unit_floats),
    st.tuples(st.just("records_in"), spans),
    st.tuples(st.just("take_all")),
)


def _run_both(make, label, items, steps, data):
    """Replay the steps on an eager store (``make(label, records)``) and
    on its decoded copy, comparing answers and wire tuples after every
    step; about half the finds and removes hit a stored key."""
    at = _inside(label)
    eager = make(label, [Record(at(k), v) for k, v in items])
    decoded = pickle.loads(pickle.dumps(eager))
    for name, *args in steps:
        if name == "add":
            key, value = args
            args = [Record(at(key), value)]
        elif name in ("remove", "find"):
            if items and data.draw(st.booleans()):
                args = [data.draw(st.sampled_from(items))[0]]
            args = [at(args[0])]
        elif args:
            args = [Range(at(args[0][0]), at(args[0][1]))]
        answers = [_answer(getattr(store, name)(*args)) for store in (eager, decoded)]
        assert answers[0] == answers[1], name
        assert _wire(eager)[1] == _wire(decoded)[1], name
        assert len(eager) == len(decoded)
    assert [(r.key, r.value) for r in decoded] == [(r.key, r.value) for r in eager]


class TestDecodedStoreParity:
    """A decoded store (key and value columns, no ``Record`` objects)
    and the eager store it was pickled from answer the same sequence of
    calls identically and stay equal on the wire after every step."""

    @given(label_bits, items, st.lists(bucket_steps, max_size=25), st.data())
    def test_leaf_bucket(self, bits, items, steps, data):
        _run_both(LeafBucket, Label(bits), items, steps, data)

    @given(
        label_bits,
        st.booleans(),
        items,
        st.lists(node_steps, max_size=25),
        st.data(),
    )
    def test_pht_node(self, bits, is_leaf, items, steps, data):
        def node(label, records):
            return PHTNode(label, is_leaf, records, None, label)

        _run_both(node, Label(bits), items, steps, data)
