"""Tests for the Kademlia and Pastry substrates."""

from __future__ import annotations

import math

import pytest

from repro.dht.kademlia import KademliaDHT
from repro.dht.hashing import hash_key
from repro.dht.pastry import PastryDHT
from repro.errors import ConfigurationError


def assert_finds_match_reference(monkeypatch, dht: KademliaDHT) -> None:
    """Pin ``dht.iterative_find`` message for message against the
    unoptimised routine — every FIND_NODE ranks the node's whole contact
    list by XOR distance — for 2 000 names.  Each name is looked up at
    its hash, at its owner's id and at the start's own id, so answers at
    distance 0 (``t == n``) are covered too."""

    def reference_answer(node_id, target):
        node = dht._nodes[node_id]
        candidates = [c for bucket in node.buckets for c in bucket]
        candidates.append(node_id)
        candidates.sort(key=lambda c: c ^ target)
        return candidates[: dht.k]

    def reference_find(start, target):
        sent = []
        queried = set()
        shortlist = sorted(reference_answer(start, target), key=lambda c: c ^ target)
        sent.append((start, tuple(shortlist)))
        for _ in range(dht.MAX_ROUNDS):
            pending = [c for c in shortlist[: dht.k] if c not in queried]
            if not pending:
                break
            best_before = shortlist[0] ^ target
            for contact in pending[: dht.alpha]:
                queried.add(contact)
                learned = reference_answer(contact, target)
                sent.append((contact, tuple(learned)))
                shortlist = sorted(
                    set(shortlist) | set(learned), key=lambda c: c ^ target
                )
            if shortlist[0] ^ target == best_before and all(
                c in queried for c in shortlist[: dht.k]
            ):
                break
        return shortlist[0], max(len(sent) - 1, 1), sent

    sent: list = []
    answer = dht._find_node

    def recording(node_id, target):
        learned = answer(node_id, target)
        sent.append((node_id, tuple(d ^ target for d in learned)))
        return learned

    monkeypatch.setattr(dht, "_find_node", recording)
    for i in range(2000):
        start = dht.peer_of(f"from{i}")
        owner = dht.peer_of(f"name{i}")
        for target in (hash_key(f"name{i}", dht.id_bits), owner, start):
            del sent[:]
            found, messages = dht.iterative_find(start, target)
            assert (found, messages, sent) == reference_find(start, target)


class TestKademlia:
    def test_bucket_index_is_highest_differing_bit(self):
        dht = KademliaDHT(n_peers=4, seed=0, id_bits=16)
        assert dht._bucket_index(0b0000, 0b0001) == 0
        assert dht._bucket_index(0b0000, 0b1000) == 3
        assert dht._bucket_index(0b0101, 0b0100) == 0

    def test_iterative_find_reaches_global_closest(self):
        dht = KademliaDHT(n_peers=60, seed=1)
        for i in range(200):
            target = hash_key(f"t{i}", dht.id_bits)
            start = dht.peer_of(f"s{i}")
            found, messages = dht.iterative_find(start, target)
            assert found == min(dht._nodes, key=lambda n: n ^ target)
            assert messages >= 1

    def test_find_is_message_for_message_the_unoptimised_routine(self, monkeypatch):
        """Candidate lists, distance-space shortlists and the k-truncated
        merge change no FIND_NODE: same recipients in the same order,
        same answers, same owner, for 2 000 names."""
        assert_finds_match_reference(monkeypatch, KademliaDHT(n_peers=128, seed=4))

    @pytest.mark.parametrize(
        "n_peers, k, alpha, id_bits",
        [
            (1, 2, 1, 8),  # k > n: every answer is the whole overlay
            (4, 8, 2, 16),  # k > n
            (60, 3, 3, 32),
            (64, 20, 3, 8),
            (256, 8, 3, 32),  # the benchmark's overlay shape
            (300, 2, 1, 16),
            (500, 20, 2, 32),
        ],
    )
    def test_find_matches_the_unoptimised_routine_across_shapes(
        self, monkeypatch, n_peers, k, alpha, id_bits
    ):
        dht = KademliaDHT(n_peers=n_peers, seed=4, id_bits=id_bits, k=k, alpha=alpha)
        assert_finds_match_reference(monkeypatch, dht)

    @pytest.mark.parametrize("id_bits", [8, 32])
    @pytest.mark.parametrize("n_peers", [1, 2, 60, 256])
    def test_peer_of_is_the_xor_minimum(self, n_peers, id_bits):
        dht = KademliaDHT(n_peers=n_peers, seed=2, id_bits=id_bits)
        for i in range(2000):
            target = hash_key(f"name{i}", id_bits)
            expected = min(dht._nodes, key=lambda nid: nid ^ target)
            assert dht.peer_of(f"name{i}") == expected

    def test_put_get_remove(self):
        dht = KademliaDHT(n_peers=30, seed=0)
        dht.put("a", "x")
        assert dht.get("a") == "x"
        assert dht.get("nope") is None
        assert dht.remove("a") == "x"

    def test_owner_matches_placement_oracle(self):
        dht = KademliaDHT(n_peers=40, seed=2)
        for i in range(100):
            owner, _ = dht.route(f"k{i}")
            assert owner == dht.peer_of(f"k{i}")

    def test_messages_scale_logarithmically(self):
        dht = KademliaDHT(n_peers=256, seed=3)
        total = 0
        for i in range(100):
            _, messages = dht.route(f"k{i}")
            total += messages
        assert total / 100 <= 4 * math.log2(256)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            KademliaDHT(n_peers=0)
        with pytest.raises(ConfigurationError):
            KademliaDHT(n_peers=4, k=0)

    def test_single_node(self):
        dht = KademliaDHT(n_peers=1, seed=0)
        dht.put("a", 1)
        assert dht.get("a") == 1


class TestPastry:
    def test_digits(self):
        dht = PastryDHT(n_peers=4, seed=0, id_bits=16, b=4)
        assert dht._digit(0xABCD, 0) == 0xA
        assert dht._digit(0xABCD, 3) == 0xD

    def test_shared_prefix_len(self):
        dht = PastryDHT(n_peers=4, seed=0, id_bits=16, b=4)
        assert dht.shared_prefix_len(0xAB00, 0xABFF) == 2
        assert dht.shared_prefix_len(0x1234, 0x1234) == 4
        assert dht.shared_prefix_len(0xF000, 0x0000) == 0

    def test_route_reaches_numerically_closest(self):
        dht = PastryDHT(n_peers=60, seed=1)
        for i in range(200):
            key = f"k{i}"
            owner, _ = dht.route(key)
            assert owner == dht.peer_of(key)

    def test_put_get_remove(self):
        dht = PastryDHT(n_peers=30, seed=0)
        dht.put("a", "x")
        assert dht.get("a") == "x"
        assert dht.remove("a") == "x"
        assert dht.get("a") is None

    def test_hops_logarithmic(self):
        dht = PastryDHT(n_peers=256, seed=2)
        total = 0
        for i in range(100):
            _, hops = dht.route(f"k{i}")
            total += hops
        # Pastry: O(log_16 N) ≈ 2 for 256 nodes; be generous.
        assert total / 100 <= 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PastryDHT(n_peers=0)
        with pytest.raises(ConfigurationError):
            PastryDHT(n_peers=4, id_bits=30, b=4)  # not a multiple

    def test_single_node(self):
        dht = PastryDHT(n_peers=1, seed=0)
        dht.put("a", 1)
        assert dht.get("a") == 1
