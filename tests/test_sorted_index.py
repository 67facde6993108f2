"""Regression tests for the array-backed PeerStore sorted-id index.

Pre-PR, Chord kept a private ``_sorted_cache`` that a single join or
leave invalidated, forcing a full ``sorted()`` rebuild on the next
route.  The kernel now maintains one incrementally-spliced index for
all substrates; these tests pin that the spliced index never drifts
from a from-scratch rebuild under arbitrary churn, and that routing on
a churned ring is identical to routing on a freshly rebuilt copy.
"""

from __future__ import annotations

import random

import pytest

from repro.dht.chord import ChordDHT
from repro.dht.kernel import PeerStore
from repro.dht.onehop import OneHopDHT
from repro.errors import ConfigurationError, NoSuchPeerError


class TestPeerStoreIndex:
    def test_spliced_index_matches_full_rebuild_under_churn(self):
        store = PeerStore()
        rng = random.Random(11)
        live: set[int] = set()
        for step in range(400):
            if live and rng.random() < 0.4:
                victim = rng.choice(sorted(live))
                live.discard(victim)
                store.remove_peer(victim)
            else:
                peer = rng.randrange(1 << 16)
                if peer in live:
                    continue
                live.add(peer)
                store.add_peer(peer)
            assert store.sorted_ids() == sorted(live), f"drift at step {step}"

    def test_successor_of_matches_naive_scan(self):
        store = PeerStore()
        ids = [5, 17, 42, 99, 200]
        for peer in ids:
            store.add_peer(peer)
        for point in [0, 5, 6, 17, 41, 99, 150, 200, 201, 1 << 20]:
            expected = min(
                (i for i in ids if i >= point), default=min(ids)
            )
            assert store.successor_of(point) == expected

    def test_successor_of_empty_store_raises(self):
        with pytest.raises(NoSuchPeerError):
            PeerStore().successor_of(0)

    def test_remove_unknown_peer_leaves_index_intact(self):
        store = PeerStore()
        store.add_peer(7)
        with pytest.raises(NoSuchPeerError):
            store.remove_peer(8)
        assert store.sorted_ids() == [7]


class TestPeerStoreKeyHandoff:
    """The kernel moves keys between peers; substrates only say which."""

    def test_add_peer_shares_no_store(self):
        store = PeerStore()
        assert store.add_peer(1) is None
        assert store.store_of(1) == {}
        with pytest.raises(NoSuchPeerError):
            store.add_peer(1)

    def test_move_keys_moves_exactly_the_selected_keys(self):
        store = PeerStore()
        store.add_peer(1)
        store.add_peer(2)
        store.store_of(1).update({"a": 1, "b": 2, "c": 3})
        store.store_of(2)["z"] = 26
        assert store.move_keys(1, 2, lambda key: key in "ac") == 2
        assert store.store_of(1) == {"b": 2}
        assert store.store_of(2) == {"z": 26, "a": 1, "c": 3}
        assert list(store.store_of(2)) == ["z", "a", "c"]  # source order
        assert store.move_keys(1, 2, lambda key: False) == 0
        with pytest.raises(NoSuchPeerError):
            store.move_keys(1, 3, lambda key: True)

    def test_adopt_merges_what_remove_peer_returned(self):
        store = PeerStore()
        store.add_peer(1)
        store.add_peer(2)
        store.store_of(1).update({"a": 1, "b": 2})
        store.store_of(2).update({"b": "stale", "z": 26})
        assert store.adopt(2, store.remove_peer(1)) == 2
        assert store.store_of(2) == {"b": 2, "z": 26, "a": 1}
        assert store.sorted_ids() == [2]


@pytest.mark.parametrize("cls", [ChordDHT, OneHopDHT], ids=["chord", "onehop"])
class TestJoinerId:
    """join(node_id) takes ids inside the identifier space only."""

    @pytest.mark.parametrize("bad", [1 << 40, -5], ids=["too-wide", "negative"])
    def test_id_outside_the_identifier_space_rejected(self, cls, bad):
        dht = cls(n_peers=8, seed=1, id_bits=32)
        for i in range(50):
            dht.put(f"k{i}", i)
        with pytest.raises(ConfigurationError):
            dht.join(bad)
        assert bad not in dht.peers
        assert dht.n_peers == 8 and dht.keys_transferred == 0

    def test_live_id_rejected_and_a_free_one_taken(self, cls):
        dht = cls(n_peers=8, seed=1, id_bits=32)
        with pytest.raises(ConfigurationError):
            dht.join(dht.node_ids[0])
        free = next(i for i in range(1 << 32) if i not in dht.peers)
        assert dht.join(free) == free
        assert dht.join() in dht.peers


class TestChordChurnRouting:
    def test_churned_ring_routes_like_a_rebuilt_index(self):
        """After joins and leaves, routing on the incrementally-spliced
        index equals routing on a deep copy whose index is rebuilt from
        scratch with ``sorted()`` — the old ``_sorted_cache`` protocol.
        Identical (owner, hops) on every probe means the splices left
        no stale or misordered entries behind."""
        import copy

        churned = ChordDHT(n_peers=24, seed=3)
        rng = random.Random(7)
        for _ in range(10):
            churned.leave(rng.choice(churned.peers.sorted_ids()))
        joined = [churned.join() for _ in range(6)]
        assert all(node_id in churned.peers for node_id in joined)

        rebuilt = copy.deepcopy(churned)
        rebuilt.peers._sorted_ids = sorted(rebuilt.peers._stores)
        assert churned.peers.sorted_ids() == rebuilt.peers.sorted_ids()
        for i in range(100):
            key = f"route-key-{i}"
            assert churned.route(key) == rebuilt.route(key)

    def test_owner_resolution_is_identical_before_and_after_index(self):
        """peer_of must agree with the naive sorted-scan successor rule
        on a churned ring — the exact property the old ``_sorted_cache``
        rebuild guaranteed."""
        from repro.dht.hashing import hash_key

        dht = ChordDHT(n_peers=24, seed=3)
        rng = random.Random(7)
        for _ in range(8):
            dht.leave(rng.choice(dht.peers.sorted_ids()))
        for _ in range(4):
            dht.join()
        ids = sorted(dht.peers.sorted_ids())
        for i in range(200):
            key = f"churn-key-{i}"
            kid = hash_key(key, dht.id_bits)
            expected = min(
                (p for p in ids if p >= kid), default=min(ids)
            )
            assert dht.peer_of(key) == expected
