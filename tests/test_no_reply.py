"""The three-outcome read contract through the deployment stack.

A DHT read answers a value, ``None`` (a live peer answered "not
stored", final) or ``NO_REPLY`` (no reply arrived).  These tests pin
what each layer of ``Resilient(Replicated(k)(Faulty(p)(Serializing(
local))))`` does with the three, and that none of it leaks: every
``exact_match_checked`` answer is PRESENT with the stored value, ABSENT
only for a key the oracle lacks, or UNREACHABLE; no public
:class:`LHTIndex` method ever hands back ``NO_REPLY``; and with no
faults the stack charges exactly what the bare substrate charges.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.core import IndexConfig, LHTIndex, LeafBucket, MatchStatus, Record
from repro.dht import DHT, NO_REPLY, ChordDHT, FaultyDHT, LocalDHT, registry
from repro.errors import ReproError

N_PEERS = 16
CONFIG = IndexConfig(theta_split=4, max_depth=20)

#: Dyadic keys in [0, 1): exactly representable, so oracle comparisons
#: are exact.
dyadic_keys = st.integers(min_value=0, max_value=2**12 - 1).map(
    lambda n: n / 2**12
)


def deploy_stack(
    k: int, seed: int = 0, substrate: str = "local"
) -> tuple[DHT, FaultyDHT]:
    """The deployment stack, faults off; returns (top, fault layer)."""
    dht = registry.stack(
        f"resilient/replicated:{k}/faulty/serializing/{substrate}", N_PEERS, seed
    )
    return dht, dht.inner.inner


def value_of(key: float) -> str:
    return f"v{key!r}"


def build(dht, keys) -> LHTIndex:
    index = LHTIndex(dht, CONFIG)
    for key in keys:
        index.insert(key, value_of(key))
    return index


def assert_no_reply_free(obj) -> None:
    """``obj`` (a public result) carries no ``NO_REPLY`` anywhere."""
    assert obj is not NO_REPLY
    for name in getattr(obj, "__slots__", ()) or vars(obj):
        field = getattr(obj, name)
        assert field is not NO_REPLY, name
        if isinstance(field, tuple):
            assert NO_REPLY not in field, name


class TestContract:
    def test_singleton_survives_pickling(self):
        assert pickle.loads(pickle.dumps(NO_REPLY)) is NO_REPLY

    def test_serializing_passes_outcomes_through_undecoded(self):
        dht = registry.stack("serializing/faulty:1/local", 8, 0)
        flaky = dht.inner
        dht.put("k", {"a": 1})
        assert dht.get("k") is NO_REPLY
        flaky.get_drop_rate = 0.0
        assert dht.get("k") == {"a": 1}
        assert dht.get("absent") is None

    def test_dead_replica_holder_gives_no_reply(self):
        dht = ChordDHT(n_peers=8, seed=0)
        dht.put("k", 1)
        victim = dht.peer_of("k")
        dht.fail(victim)
        assert dht.probe_get("k", victim) is NO_REPLY


class TestAbsentNameCost:
    def test_one_absent_name_costs_one_lookup(self):
        """An answered miss is final at every layer: one routed get, no
        retry, no replica probe (15 DHT-lookups when a miss could not
        be told from a lost reply: 5 attempts x 3 holders)."""
        dht, _ = deploy_stack(k=3)
        dht.put("present", 1)
        before = dht.metrics.snapshot()
        assert dht.get("absent") is None
        spent = dht.metrics.since(before)
        assert spent.dht_lookups == 1
        assert spent.retries == spent.replica_probe_gets == 0

    def test_range_drain_rescues_only_lost_replies(self):
        """Range repairs legitimately read absent names; over a
        fault-free replicated stack none of them probes a replica, so
        every query costs what it costs on the bare substrate."""
        keys = [i / 97 for i in range(97)]
        bare = build(LocalDHT(N_PEERS, 0), keys)
        deployed = build(deploy_stack(k=3)[0], keys)
        repairs = 0
        for lo, hi in ((0.0, 1.0), (0.1, 0.35), (0.5, 0.51), (0.9, 0.95)):
            costs = []
            for index in (bare, deployed):
                before = index.dht.metrics.snapshot()
                result = index.range_query(lo, hi)
                spent = index.dht.metrics.since(before)
                costs.append((result.keys, result.failed_lookups, spent.gets))
                assert spent.replica_probe_gets == 0
            assert costs[0] == costs[1]
            repairs += costs[0][1]
        assert repairs > 0  # answered misses did occur


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("p", [0.0, 0.3])
@given(
    substrate=st.sampled_from(registry.names()),
    stored=st.lists(dyadic_keys, min_size=1, max_size=80, unique=True),
    others=st.lists(dyadic_keys, max_size=20),
    seed=st.integers(min_value=0, max_value=2**16),
)
# At k=1, p=0.3 this seed drops the get of '#00': max_query's inward walk
# (from the empty leaf '#01') must not take the f_n repair's '#000', a
# leaf not adjacent to '#01', for the answer (0.1035, not 0.2520).
@example(
    substrate="local",
    stored=[0.103515625, 0.0, 8 / 2**12, 9 / 2**12, 0.251953125],
    others=[],
    seed=428,
)
def test_deploy_stack_answers_are_typed_and_true(
    k, p, substrate, stored, others, seed
):
    dht, faulty = deploy_stack(k, seed, substrate)
    index = build(dht, stored)
    oracle = {key: value_of(key) for key in stored}
    bare = (
        build(registry.make(substrate, N_PEERS, seed), stored)
        if p == 0.0
        else None
    )
    faulty.get_drop_rate = p

    for key in stored + others:
        before = dht.metrics.snapshot()
        result = index.exact_match_checked(key)
        spent = dht.metrics.since(before)
        assert_no_reply_free(result)
        if result.status is MatchStatus.PRESENT:
            assert (result.record.key, result.record.value) == (key, oracle[key])
        elif result.status is MatchStatus.ABSENT:
            assert key not in oracle
        else:
            assert result.status is MatchStatus.UNREACHABLE and p > 0
        if bare is not None:
            # Fault-free: call for call what the bare substrate charges.
            bare_before = bare.dht.metrics.snapshot()
            expected = bare.exact_match_checked(key)
            assert result == expected
            assert spent.gets == bare.dht.metrics.since(bare_before).gets
            assert spent.retries == spent.replica_probe_gets == 0

    # Every other public read: typed, never NO_REPLY.
    probe = (stored + others)[0]
    try:
        looked_up = index.lookup(probe)
    except ReproError:
        pass
    else:
        assert looked_up.bucket is None or isinstance(looked_up.bucket, LeafBucket)
        assert_no_reply_free(looked_up)
    try:
        record, _ = index.exact_match(probe)
    except ReproError:
        pass
    else:
        assert record is None or isinstance(record, Record)
    ranged = index.range_query(0.25, 0.75, degraded=True)
    assert_no_reply_free(ranged)
    truth = sorted(key for key in oracle if 0.25 <= key < 0.75)
    assert set(ranged.keys) <= set(truth)
    if ranged.complete:
        assert ranged.keys == truth
    for extreme, want in (
        (index.min_query(degraded=True), min(oracle)),
        (index.max_query(degraded=True), max(oracle)),
    ):
        assert_no_reply_free(extreme)
        if extreme.complete:
            assert extreme.record.key == want
    try:
        scanned = [record.key for record in index.scan()]
    except ReproError:
        pass
    else:
        assert scanned == sorted(oracle)
    try:
        nearest = index.knn_query(probe, 3)
    except ReproError:
        pass
    else:
        assert all(isinstance(r, Record) for r in nearest.records)
        distances = sorted(abs(r.key - probe) for r in nearest.records)
        assert distances == sorted(abs(key - probe) for key in oracle)[:3]
