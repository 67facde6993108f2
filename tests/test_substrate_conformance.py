"""Parametrized conformance suite over all substrates and wrappers.

The kernel refactor's contract: any :class:`~repro.dht.base.DHT` —
every substrate enrolled in :mod:`repro.dht.registry`, the wrappers,
and stacked wrapper combinations — satisfies the same observable
behaviour, because storage semantics now live in one place
(:mod:`repro.dht.kernel`).  The substrate axis iterates the registry,
so an enrolled substrate joins every matrix here with zero
substrate-specific skips.  This suite pins that contract per
configuration:

* put/get/remove round-trips (including overwrite and absent keys);
* ``local_write`` places fresh keys at the responsible peer and charges
  zero DHT-lookups;
* the sorted-id cache stays coherent across join/leave/fail membership
  changes (Chord, CAN and OneHop, the dynamic overlays);
* ``multi_get`` preserves key order and honours ``absorb_errors``;
* ``multi_put`` is byte-equivalent to sequential puts (stored state
  *and* metrics), charges per key, honours ``absorb_errors``
  symmetrically with ``multi_get``, and is deliberately **not**
  forwarded to ``inner`` by any wrapper.
"""

from __future__ import annotations

import pytest

from repro.dht import (
    AccessLoggingDHT,
    CANDHT,
    ChordDHT,
    FaultyDHT,
    LocalDHT,
    OneHopDHT,
    ReplicatedDHT,
    SerializingDHT,
)
from repro.dht.base import DHT, NO_REPLY
from repro.dht.registry import make as make_dht, names as substrate_names
from repro.errors import DHTError
from repro.resilience import ResilientDHT

N_PEERS = 16
SEED = 7

#: name -> factory over a freshly built substrate.
WRAPPERS = {
    "faulty": lambda inner: FaultyDHT(inner, seed=SEED),
    "replicated": lambda inner: ReplicatedDHT(inner, n_replicas=2),
    "serializing": SerializingDHT,
    "accesslog": AccessLoggingDHT,
    "resilient": ResilientDHT,
}

#: Stacked combinations exercised on top of single wrappers; order reads
#: outermost-first, e.g. ``serializing+replicated`` is
#: ``SerializingDHT(ReplicatedDHT(substrate))``.
STACKS = {
    "serializing+replicated": lambda inner: SerializingDHT(
        ReplicatedDHT(inner, n_replicas=2)
    ),
    "resilient+faulty": lambda inner: ResilientDHT(
        FaultyDHT(inner, seed=SEED)
    ),
    "accesslog+serializing+replicated": lambda inner: AccessLoggingDHT(
        SerializingDHT(ReplicatedDHT(inner, n_replicas=2))
    ),
}

CONFIGS = {
    **{name: (name, None) for name in substrate_names()},
    **{
        f"chord+{wname}": ("chord", wfactory)
        for wname, wfactory in sorted(WRAPPERS.items())
    },
    **{
        f"chord+{sname}": ("chord", sfactory)
        for sname, sfactory in sorted(STACKS.items())
    },
}


def _build_config(name: str) -> DHT:
    substrate, wrapper = CONFIGS[name]
    inner = make_dht(substrate, N_PEERS, SEED)
    return wrapper(inner) if wrapper else inner


@pytest.fixture(params=sorted(CONFIGS), ids=sorted(CONFIGS))
def dht(request) -> DHT:
    return _build_config(request.param)


@pytest.fixture(params=sorted(CONFIGS), ids=sorted(CONFIGS))
def dht_pair(request) -> tuple[DHT, DHT]:
    """Two independently built, identically configured stacks — one for
    the batched operation under test, one for its sequential twin."""
    return _build_config(request.param), _build_config(request.param)


class TestRoundTrips:
    def test_put_get_remove(self, dht):
        dht.put("alpha", {"v": 1})
        dht.put("beta", [2, 3])
        assert dht.get("alpha") == {"v": 1}
        assert dht.get("beta") == [2, 3]
        assert dht.get("gamma") is None
        assert dht.remove("alpha") == {"v": 1}
        assert dht.get("alpha") is None
        assert dht.remove("alpha") is None

    def test_overwrite(self, dht):
        dht.put("k", "old")
        dht.put("k", "new")
        assert dht.get("k") == "new"

    def test_contains_via_peek(self, dht):
        assert "k" not in dht
        dht.put("k", 1)
        assert "k" in dht
        assert dht.peek("missing") is None

    def test_keys_enumerates_stored(self, dht):
        for i in range(10):
            dht.put(f"k{i}", i)
        assert set(dht.keys()) == {f"k{i}" for i in range(10)}


class TestLocalWrite:
    def test_fresh_key_lands_at_responsible_peer(self, dht):
        dht.local_write("fresh", 42)
        assert dht.peek("fresh") == 42

    def test_updates_existing_key_in_place(self, dht):
        dht.put("k", "routed")
        dht.local_write("k", "rewritten")
        assert dht.get("k") == "rewritten"

    def test_charges_zero_lookups(self, dht):
        dht.put("k", 1)  # the put itself is charged
        before = dht.metrics.snapshot()
        dht.local_write("k", 2)
        dht.local_write("fresh", 3)
        spent = dht.metrics.since(before)
        assert spent.dht_lookups == 0
        assert spent.hops == 0


class TestMultiGet:
    def test_order_matches_keys(self, dht):
        keys = [f"m{i}" for i in range(8)]
        for i, key in enumerate(keys):
            dht.put(key, i)
        request = [keys[5], "absent", keys[0], keys[7]]
        assert dht.multi_get(request) == [5, None, 0, 7]

    def test_empty_round(self, dht):
        assert dht.multi_get([]) == []

    def test_each_key_charged_once(self, dht):
        keys = [f"m{i}" for i in range(6)]
        for key in keys:
            dht.put(key, 1)
        before = dht.metrics.snapshot()
        dht.multi_get(keys)
        spent = dht.metrics.since(before)
        # Replicated stacks may probe extra replicas on a miss, but a
        # batched round charges at least one routed get per key and
        # nothing is free.
        assert spent.dht_lookups >= len(keys)


class TestAbsorbErrors:
    def test_errors_absorbed_per_key(self):
        inner = make_dht("local", N_PEERS, SEED)
        flaky = FaultyDHT(inner, get_drop_rate=1.0, seed=SEED)
        flaky.put("k", 1)
        # A dropped get returns NO_REPLY (reply lost), never raises.
        assert flaky.multi_get(["k", "k"], absorb_errors=True) == [
            NO_REPLY,
            NO_REPLY,
        ]

    def test_typed_error_propagates_without_flag(self):
        class ExplodingDHT(SerializingDHT):
            def get(self, key):
                raise DHTError("injected routing failure")

        exploding = ExplodingDHT(make_dht("local", N_PEERS, SEED))
        with pytest.raises(DHTError):
            exploding.multi_get(["a", "b"])
        assert exploding.multi_get(["a", "b"], absorb_errors=True) == [
            NO_REPLY,
            NO_REPLY,
        ]


class TestMultiPut:
    ITEMS = [(f"p{i}", {"v": i}) for i in range(8)]

    def test_byte_equivalent_to_sequential_puts(self, dht_pair):
        """One batched round must leave stored state *and* the metrics
        ledger identical to issuing the same puts sequentially."""
        batched, sequential = dht_pair
        batched.multi_put(self.ITEMS)
        for key, value in self.ITEMS:
            sequential.put(key, value)
        for key, value in self.ITEMS:
            assert batched.get(key) == value
            assert sequential.get(key) == value
        assert set(batched.keys()) == set(sequential.keys())
        assert (
            batched.metrics.snapshot().to_dict()
            == sequential.metrics.snapshot().to_dict()
        )

    def test_returns_stored_flags_in_item_order(self, dht):
        assert dht.multi_put(self.ITEMS) == [True] * len(self.ITEMS)
        assert dht.multi_put([]) == []

    def test_last_write_wins_within_a_round(self, dht):
        dht.multi_put([("k", "first"), ("k", "second")])
        assert dht.get("k") == "second"

    def test_each_key_charged(self, dht):
        before = dht.metrics.snapshot()
        dht.multi_put(self.ITEMS)
        spent = dht.metrics.since(before)
        # Replicated stacks charge extra replica puts, but a batched
        # round charges at least one routed put per item and nothing is
        # free.
        assert spent.puts >= len(self.ITEMS)
        assert spent.dht_lookups >= len(self.ITEMS)

    @pytest.mark.parametrize("name", substrate_names())
    def test_bare_substrates_charge_exactly_once_per_key(self, name):
        dht = make_dht(name, N_PEERS, SEED)
        before = dht.metrics.snapshot()
        dht.multi_put(self.ITEMS)
        spent = dht.metrics.since(before)
        assert spent.puts == len(self.ITEMS)
        assert spent.dht_lookups == len(self.ITEMS)


@pytest.mark.parametrize("absorb", [False, True], ids=["raise", "absorb"])
@pytest.mark.parametrize("name", substrate_names())
def test_batch_rounds_equal_sequential_ops_on_every_substrate(name, absorb):
    """The inherited ``DHT`` batch defaults are the only batch round: on
    same-seed twins a ``multi_put`` then a ``multi_get`` leave the
    metrics ledger, the answers and every peer's store exactly as the
    per-key ``put``/``get`` calls do — gateway draws included."""
    batched = make_dht(name, N_PEERS, SEED)
    sequential = make_dht(name, N_PEERS, SEED)
    items = [(f"b{i}", {"v": i}) for i in range(12)]
    keys = [key for key, _ in items[::2]] + ["absent-1", "absent-2"]

    assert batched.multi_put(items, absorb_errors=absorb) == [True] * len(items)
    for key, value in items:
        sequential.put(key, value)
    assert batched.metrics.snapshot() == sequential.metrics.snapshot()

    answers = batched.multi_get(keys, absorb_errors=absorb)
    assert answers == [sequential.get(key) for key in keys]
    assert batched.metrics.snapshot() == sequential.metrics.snapshot()
    assert list(batched.keys()) == list(sequential.keys())
    assert batched.peer_loads() == sequential.peer_loads()
    assert all(batched.peek(key) == sequential.peek(key) for key, _ in items)


class TestMultiPutAbsorbErrors:
    """``absorb_errors=`` must mirror ``multi_get``: per-key absorption
    into the failure sentinel (``False`` for puts, ``None`` for gets),
    propagation of the typed error without the flag."""

    def test_all_failures_absorbed_per_key(self):
        inner = make_dht("local", N_PEERS, SEED)
        flaky = FaultyDHT(inner, put_fail_rate=1.0, seed=SEED)
        assert flaky.multi_put(
            [("a", 1), ("b", 2)], absorb_errors=True
        ) == [False, False]
        assert flaky.get("a") is None and flaky.get("b") is None

    def test_partial_failures_keep_successful_keys(self):
        inner = make_dht("local", N_PEERS, SEED)
        flaky = FaultyDHT(inner, put_fail_rate=0.5, seed=SEED)
        items = [(f"k{i}", i) for i in range(20)]
        stored = flaky.multi_put(items, absorb_errors=True)
        assert True in stored and False in stored
        for (key, value), ok in zip(items, stored):
            assert flaky.get(key) == (value if ok else None)

    def test_typed_error_propagates_without_flag(self):
        inner = make_dht("local", N_PEERS, SEED)
        flaky = FaultyDHT(inner, put_fail_rate=1.0, seed=SEED)
        with pytest.raises(DHTError):
            flaky.multi_put([("a", 1), ("b", 2)])

    def test_symmetry_with_multi_get(self):
        """The two batched ops absorb the same injected fault class the
        same way: one sentinel per failed key, order preserved."""
        flaky = FaultyDHT(
            make_dht("local", N_PEERS, SEED),
            get_drop_rate=1.0,
            put_fail_rate=1.0,
            seed=SEED,
        )
        keys = ["a", "b", "c"]
        puts = flaky.multi_put([(k, 1) for k in keys], absorb_errors=True)
        gets = flaky.multi_get(keys, absorb_errors=True)
        assert puts == [False] * len(keys)
        assert gets == [NO_REPLY] * len(keys)


class TestMultiPutCacheInvalidation:
    """Batched puts must observe membership changes like single puts:
    the kernel's sorted-id cache is invalidated, so every item lands at
    a live responsible peer."""

    def _assert_routes_live(self, dht, items):
        for key, value in items:
            owner = dht.peer_of(key)
            assert owner in dht.node_ids
            assert dht.get(key) == value

    def test_chord_membership_churn_between_rounds(self):
        dht = ChordDHT(n_peers=12, seed=SEED)
        first = [(f"a{i}", i) for i in range(10)]
        dht.multi_put(first)
        self._assert_routes_live(dht, first)

        dht.join()
        dht.fail(dht.node_ids[0])
        dht.stabilize_all(rounds=2)
        second = [(f"b{i}", i) for i in range(10)]
        dht.multi_put(second)
        self._assert_routes_live(dht, second)
        dht.check_ring()

    def test_can_membership_churn_between_rounds(self):
        dht = CANDHT(n_peers=10, seed=SEED)
        first = [(f"a{i}", i) for i in range(10)]
        dht.multi_put(first)
        self._assert_routes_live(dht, first)

        dht.join()
        for victim in list(dht.node_ids):
            if dht.leave(victim):
                break
        second = [(f"b{i}", i) for i in range(10)]
        dht.multi_put(second)
        self._assert_routes_live(dht, second)
        dht.check_partition()


class _RecordingInner(LocalDHT):
    """Substrate that records batched calls reaching it directly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.multi_put_calls = 0
        self.multi_get_calls = 0

    def multi_put(self, items, *, absorb_errors=False):
        self.multi_put_calls += 1
        return super().multi_put(items, absorb_errors=absorb_errors)

    def multi_get(self, keys, *, absorb_errors=False):
        self.multi_get_calls += 1
        return super().multi_get(keys, absorb_errors=absorb_errors)


class TestWrapperBatchedOpForwarding:
    """Wrappers must NOT forward batched ops to ``inner`` even when the
    inner substrate overrides them: the inherited sequential defaults go
    through the wrapper's *own* single-key ops, so per-key semantics
    (fault injection, replication, logging, retries) apply to every item.
    Forwarding would skip the whole wrapper stack — the regression this
    class pins (see the DelegatingDHT docstring in repro.dht.kernel)."""

    FACTORIES = {**WRAPPERS, **STACKS}

    @pytest.mark.parametrize("name", sorted(FACTORIES), ids=sorted(FACTORIES))
    def test_inner_overrides_are_never_invoked(self, name):
        inner = _RecordingInner(n_peers=N_PEERS, seed=SEED)
        wrapped = self.FACTORIES[name](inner)

        items = [(f"k{i}", i) for i in range(6)]
        wrapped.multi_put(items)
        wrapped.multi_get([key for key, _ in items])
        assert inner.multi_put_calls == 0
        assert inner.multi_get_calls == 0
        for key, value in items:
            assert wrapped.get(key) == value

    def test_direct_substrate_overrides_still_dispatch(self):
        """The rule is about wrappers, not dynamic dispatch: calling the
        substrate directly must use its own override."""
        inner = _RecordingInner(n_peers=N_PEERS, seed=SEED)
        inner.multi_put([("k", 1)])
        inner.multi_get(["k"])
        assert inner.multi_put_calls == 1
        assert inner.multi_get_calls == 1


class TestCacheInvalidation:
    """Membership changes must invalidate the kernel's sorted-id cache."""

    def _assert_coherent(self, dht):
        assert dht.node_ids == sorted(dht.node_ids)
        assert len(dht.node_ids) == dht.n_peers
        assert set(dht.peer_loads()) == set(dht.node_ids)

    def test_chord_join_leave_fail(self):
        dht = ChordDHT(n_peers=12, seed=SEED)
        for i in range(30):
            dht.put(f"k{i}", i)
        self._assert_coherent(dht)

        joined = dht.join()
        assert joined in dht.node_ids
        self._assert_coherent(dht)
        assert all(dht.get(f"k{i}") == i for i in range(30))

        victim = next(nid for nid in dht.node_ids if nid != joined)
        dht.leave(victim, graceful=True)
        assert victim not in dht.node_ids
        self._assert_coherent(dht)
        assert all(dht.get(f"k{i}") == i for i in range(30))

        crashed = dht.node_ids[0]
        dht.fail(crashed)
        assert crashed not in dht.node_ids
        self._assert_coherent(dht)
        # Routing still works; keys on the crashed node are lost, the
        # rest survive.
        dht.stabilize_all(rounds=2)
        dht.check_ring()

    def test_can_join_leave(self):
        dht = CANDHT(n_peers=10, seed=SEED)
        for i in range(30):
            dht.put(f"k{i}", i)
        self._assert_coherent(dht)

        joined = dht.join()
        assert joined in dht.node_ids
        self._assert_coherent(dht)
        assert all(dht.get(f"k{i}") == i for i in range(30))

        for victim in list(dht.node_ids):
            if victim != joined and dht.leave(victim):
                assert victim not in dht.node_ids
                break
        self._assert_coherent(dht)
        dht.check_partition()
        assert all(dht.get(f"k{i}") == i for i in range(30))

    def test_onehop_join_leave_fail(self):
        dht = OneHopDHT(n_peers=12, seed=SEED)
        for i in range(30):
            dht.put(f"k{i}", i)
        self._assert_coherent(dht)

        joined = dht.join()
        assert joined in dht.node_ids
        self._assert_coherent(dht)
        # Routes stay exact even before the join event disseminates
        # (the previous owner forwards during the quarantine window).
        assert all(dht.get(f"k{i}") == i for i in range(30))

        victim = next(nid for nid in dht.node_ids if nid != joined)
        dht.leave(victim, graceful=True)
        assert victim not in dht.node_ids
        self._assert_coherent(dht)
        assert all(dht.get(f"k{i}") == i for i in range(30))

        crashed = dht.node_ids[0]
        dht.fail(crashed)
        assert crashed not in dht.node_ids
        self._assert_coherent(dht)
        dht.settle()
        dht.check_tables()

    def test_peer_of_tracks_membership(self):
        dht = ChordDHT(n_peers=12, seed=SEED)
        key = "tracked"
        owner_before = dht.peer_of(key)
        # Crash the owner: responsibility must move to a live peer.
        dht.fail(owner_before)
        owner_after = dht.peer_of(key)
        assert owner_after != owner_before
        assert owner_after in dht.node_ids
