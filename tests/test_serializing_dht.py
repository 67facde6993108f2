"""Byte-store semantics: the full index battery over SerializingDHT.

Every value crosses the DHT boundary as pickled bytes, so a fetched
bucket is always a *copy* — any index code that mutated a fetched object
and relied on in-process aliasing to "store" the change would fail here.
Passing this suite is the evidence that LHT and PHT persist every
mutation through an explicit routed put or local write, i.e. that they
would run over a real byte-oriented DHT.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.pht import PHTIndex
from repro.core import (
    IndexConfig,
    IndexInspector,
    Label,
    LeafBucket,
    LHTIndex,
    Record,
    ReferenceTree,
)
from repro.dht import ChordDHT, LocalDHT, SerializingDHT, registry
from repro.dht.kernel import stack_layers
from repro.dht.serializing import serializing_layer

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)


def _lht(theta=8, merge=False, inner=None):
    dht = SerializingDHT(inner or LocalDHT(16, 0))
    config = IndexConfig(theta_split=theta, max_depth=30, merge_enabled=merge)
    return LHTIndex(dht, config), dht


class TestByteStoreBasics:
    def test_fetches_are_copies(self):
        dht = SerializingDHT(LocalDHT(8, 0))
        dht.put("k", [1, 2, 3])
        a = dht.get("k")
        a.append(4)  # mutate the copy
        assert dht.get("k") == [1, 2, 3]  # the store is unaffected

    def test_local_write_persists(self):
        dht = SerializingDHT(LocalDHT(8, 0))
        dht.put("k", [1])
        value = dht.get("k")
        value.append(2)
        dht.local_write("k", value)
        assert dht.get("k") == [1, 2]

    def test_local_write_is_free(self):
        dht = SerializingDHT(LocalDHT(8, 0))
        dht.put("k", [1])
        before = dht.metrics.snapshot()
        dht.local_write("k", [1, 2])
        assert dht.metrics.since(before).dht_lookups == 0

    def test_bytes_accounted(self):
        dht = SerializingDHT(LocalDHT(8, 0))
        dht.put("k", "x" * 100)
        assert dht.bytes_written > 100


def _put_bytes(bucket) -> int:
    dht = SerializingDHT(LocalDHT(8, 0))
    dht.put("k", bucket)
    return dht.bytes_written


def _int_bucket(n: int) -> LeafBucket:
    """A root bucket of ``n`` records with small-int payloads."""
    return LeafBucket(Label("0"), [Record((i + 0.5) / n, i) for i in range(n)])


class TestWireSize:
    """Count-based pins on what one bucket costs on the wire (the
    constant in front of Theorem 2's "half a bucket moves")."""

    def test_sixty_record_put_fits_800_bytes(self):
        assert _put_bytes(_int_bucket(60)) <= 800  # 1 418 B before the wire form

    def test_one_more_record_costs_at_most_16_bytes(self):
        # An 8-byte float key, a small int payload, two opcodes.
        assert _put_bytes(_int_bucket(61)) - _put_bytes(_int_bucket(60)) <= 16

    def test_relabelled_bucket_ships_no_interval_cache(self):
        """A split relabels the bucket that stays put (Theorem 2); the
        first ``contains`` on the new label caches its interval (two
        Fractions), which must not ride along on later writes."""
        bucket = _int_bucket(60)
        bucket.take_records_in(Label("01").interval.to_range())
        bucket.label = Label("00")
        cold = _put_bytes(bucket)
        assert bucket.contains_key(0.25)  # populates the label's cache
        assert _put_bytes(bucket) == cold

    def test_fetched_buckets_are_fresh_copies(self):
        dht = SerializingDHT(LocalDHT(8, 0))
        dht.put("k", _int_bucket(3))
        first, second = dht.get("k"), dht.get("k")
        assert first == second and first is not second
        first.add(Record(0.99, "unsaved"))
        first.label = Label("00")
        assert dht.get("k") == second == _int_bucket(3)


class TestNoRecordPerRow:
    """A decoded bucket keeps the wire's key and value columns: a
    converged lookup builds only the ``Record`` it returns, and an
    in-bucket insert or delete only the one it stores or removes — not
    one per row of every bucket it fetches."""

    THETA = 64

    @pytest.fixture
    def index(self):
        index, _ = _lht(theta=self.THETA)
        index.bulk_load([(i * 0.618034) % 1.0 for i in range(400)])
        return index

    @pytest.fixture
    def records_built(self, monkeypatch):
        count = [0]
        init = Record.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Record, "__init__", counting_init)
        return count

    def test_converged_exact_match(self, index, records_built):
        for key, stored in ((0.618034, True), (0.0, True), (0.5, False), (0.9, False)):
            before = records_built[0]
            record, _ = index.exact_match(key)
            assert (record is not None) == stored
            assert records_built[0] - before <= 1

    def test_in_bucket_insert_and_delete(self, index, records_built):
        fresh = [
            key
            for key in np.linspace(0.001, 0.999, 40).tolist()
            if not index.lookup(key).bucket.is_full(self.THETA)
        ]
        assert fresh
        for key in fresh[:10]:
            before = records_built[0]
            assert index.insert(key).split is None
            assert records_built[0] - before <= 1
            before = records_built[0]
            assert index.delete(key).deleted
            assert records_built[0] - before <= 1


class TestOneEncodePerWrite:
    """A replica fan-out pickles its value once: every holder stores the
    same payload, and ``bytes_written`` still counts one per holder."""

    @pytest.fixture
    def stack(self):
        dht = registry.stack("replicated:3/serializing/local", 16, 0)
        index = LHTIndex(dht, IndexConfig(theta_split=8))
        for key in (0.1, 0.6):
            index.insert(key)
        return index, dht

    @pytest.fixture
    def dumps_calls(self, monkeypatch):
        count = [0]
        dumps = pickle.dumps

        def counting_dumps(*args, **kwargs):
            count[0] += 1
            return dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        return count

    def test_in_bucket_insert(self, stack, dumps_calls):
        index, dht = stack
        wire = serializing_layer(dht)
        before = wire.bytes_written
        assert index.insert(0.2).split is None
        assert dumps_calls[0] == 1
        *_, base = stack_layers(dht)
        stored = [base.peers.store_of(peer)["#"] for peer in dht.replica_peers("#")]
        assert len(stored) == 3 and isinstance(stored[0], bytes)
        assert stored[0] == stored[1] == stored[2]
        assert wire.bytes_written - before == 3 * len(stored[0])
        assert 0.2 in index.range_query(0.0, 1.0).keys


class TestLHTOverByteStore:
    @given(st.lists(unit_floats, min_size=1, max_size=200))
    def test_inserts_and_queries(self, keys):
        index, dht = _lht(theta=4)
        tree = ReferenceTree(IndexConfig(theta_split=4, max_depth=30))
        for key in keys:
            index.insert(key)
            tree.insert(key)
        IndexInspector(dht).verify()
        assert IndexInspector(dht).all_keys() == tree.all_keys()
        for key in keys[:30]:
            record, _ = index.exact_match(key)
            assert record is not None
        result = index.range_query(0.2, 0.8)
        assert result.keys == tree.keys_in_range(0.2, 0.8)
        assert index.min_query().record.key == min(keys)
        assert index.max_query().record.key == max(keys)

    @given(
        st.lists(unit_floats, min_size=1, max_size=120),
        st.randoms(use_true_random=False),
    )
    def test_mixed_workload_with_merges(self, keys, rand):
        index, dht = _lht(theta=4, merge=True)
        live: list[float] = []
        for key in keys:
            if live and rand.random() < 0.35:
                victim = live.pop(rand.randrange(len(live)))
                assert index.delete(victim).deleted
            else:
                index.insert(key)
                live.append(key)
        IndexInspector(dht).verify()
        assert IndexInspector(dht).all_keys() == sorted(live)

    def test_bulk_load_over_byte_store(self):
        index, dht = _lht(theta=8)
        keys = [float(k) for k in np.random.default_rng(0).random(800)]
        index.bulk_load(keys)
        IndexInspector(dht).verify()
        assert IndexInspector(dht).all_keys() == sorted(keys)

    def test_costs_identical_to_object_store(self):
        """Serialization must not change any count the paper measures."""
        keys = [float(k) for k in np.random.default_rng(1).random(1000)]
        config = IndexConfig(theta_split=8, max_depth=30)
        plain = LHTIndex(LocalDHT(16, 0), config)
        boxed = LHTIndex(SerializingDHT(LocalDHT(16, 0)), config)
        for key in keys:
            plain.insert(key)
            boxed.insert(key)
        assert (
            plain.ledger.maintenance_lookups == boxed.ledger.maintenance_lookups
        )
        assert plain.dht.metrics.dht_lookups == boxed.dht.metrics.dht_lookups

    def test_over_serialized_chord(self):
        index, dht = _lht(theta=8, inner=ChordDHT(n_peers=16, seed=0))
        keys = [float(k) for k in np.random.default_rng(2).random(300)]
        for key in keys:
            index.insert(key)
        IndexInspector(dht).verify()
        assert index.range_query(0.0, 1.0).keys == sorted(keys)


class TestPHTOverByteStore:
    @given(st.lists(unit_floats, min_size=1, max_size=150))
    def test_inserts_and_queries(self, keys):
        dht = SerializingDHT(LocalDHT(16, 0))
        index = PHTIndex(dht, IndexConfig(theta_split=4, max_depth=30))
        for key in keys:
            index.insert(key)
        for key in keys[:30]:
            record, _ = index.exact_match(key)
            assert record is not None
        expected = sorted(k for k in keys if 0.1 <= k < 0.9)
        assert index.range_query_sequential(0.1, 0.9).keys == expected
        assert index.range_query_parallel(0.1, 0.9).keys == expected

    def test_delete_persists(self):
        dht = SerializingDHT(LocalDHT(16, 0))
        index = PHTIndex(dht, IndexConfig(theta_split=8))
        index.insert(0.3)
        index.delete(0.3)
        record, _ = index.exact_match(0.3)
        assert record is None
