"""Kademlia DHT substrate (Maymounkov & Mazières, IPTPS 2002).

XOR-metric routing with per-node k-buckets and the iterative
``FIND_NODE`` procedure: each lookup keeps a shortlist of the ``k``
closest known contacts and queries the ``α`` closest not-yet-queried ones
per round until the closest node stops improving.

Keys live on the single node whose identifier is XOR-closest to
``hash(key)`` (replication factor 1 — the index layers treat the DHT as a
non-replicated put/get store, as the paper does; replication is an
orthogonal substrate concern).

The overlay is built statically from the global membership (each node's
buckets are populated with up to ``k`` contacts per distance range),
which models a converged network — the regime in which the paper
measures.  Hop accounting counts every ``FIND_NODE`` message of the
iterative lookup, Kademlia's natural bandwidth unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.hashing import hash_key
from repro.dht.kernel import SubstrateBase
from repro.dht.metrics import MetricsRecorder
from repro.errors import ConfigurationError, RoutingError

__all__ = ["KademliaDHT", "KademliaNode"]


@dataclass(slots=True)
class KademliaNode:
    """One Kademlia peer: identifier and k-buckets (its keys live in the
    kernel's peer store)."""

    id: int
    buckets: list[list[int]] = field(default_factory=list)
    #: Every contact plus the node itself — what FIND_NODE ranks.  The
    #: overlay is static, so this is flattened once, at construction.
    known: list[int] = field(default_factory=list)

    def contacts(self) -> list[int]:
        """All known contacts across buckets."""
        return [c for bucket in self.buckets for c in bucket]


class KademliaDHT(SubstrateBase):
    """A simulated Kademlia overlay implementing the generic DHT interface."""

    MAX_ROUNDS = 64

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        id_bits: int = 32,
        k: int = 8,
        alpha: int = 3,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        super().__init__(n_peers, seed, metrics)
        if k < 1 or alpha < 1:
            raise ConfigurationError(f"k and alpha must be >= 1: k={k}, alpha={alpha}")
        self.id_bits = id_bits
        self.k = k
        self.alpha = alpha
        self._nodes: dict[int, KademliaNode] = {}
        # set(): this overlay registers in a set's iteration order, which
        # pins its oracle-scan order (see SubstrateBase._draw_ids).
        for nid in set(self._draw_ids(n_peers, id_bits)):
            self._nodes[nid] = KademliaNode(id=nid)
            self.peers.add_peer(nid)
        self._build_buckets()

    # ------------------------------------------------------------------
    # Static overlay construction
    # ------------------------------------------------------------------

    def _bucket_index(self, node_id: int, other: int) -> int:
        """Bucket index = position of the highest differing bit."""
        return (node_id ^ other).bit_length() - 1

    def _build_buckets(self) -> None:
        all_ids = sorted(self._nodes)
        for node in self._nodes.values():
            node.buckets = [[] for _ in range(self.id_bits)]
            for other in all_ids:
                if other == node.id:
                    continue
                idx = self._bucket_index(node.id, other)
                if len(node.buckets[idx]) < self.k:
                    node.buckets[idx].append(other)
            node.known = node.contacts() + [node.id]

    # ------------------------------------------------------------------
    # Iterative lookup
    # ------------------------------------------------------------------

    def _node_closest_contacts(self, node_id: int, target: int) -> list[int]:
        """A node's answer to FIND_NODE: its k known contacts closest to
        ``target`` (itself included, as real implementations do),
        closest first."""
        return sorted(self._nodes[node_id].known, key=target.__xor__)[: self.k]

    def iterative_find(self, start: int, target: int) -> tuple[int, int]:
        """Locate the globally XOR-closest node to ``target``.

        Returns ``(closest_node_id, messages_sent)``.
        """
        queried: set[int] = set()
        shortlist = self._node_closest_contacts(start, target)
        messages = 0
        for _ in range(self.MAX_ROUNDS):
            pending = [c for c in shortlist if c not in queried]
            if not pending:
                break
            best_before = shortlist[0] ^ target
            for contact in pending[: self.alpha]:
                queried.add(contact)
                messages += 1
                learned = self._node_closest_contacts(contact, target)
                # Only the k closest ever matter: an id that more ids
                # push out of the top k never re-enters it.
                shortlist = sorted(
                    set(shortlist).union(learned), key=target.__xor__
                )[: self.k]
            if shortlist[0] ^ target == best_before and queried.issuperset(
                shortlist
            ):
                break
        else:
            raise RoutingError(f"Kademlia lookup did not converge on {target}")
        return shortlist[0], max(messages, 1)

    def route(self, key: str) -> tuple[int, int]:
        return self.iterative_find(self._gateway(), hash_key(key, self.id_bits))

    # ------------------------------------------------------------------
    # Placement oracle
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> int:
        target = hash_key(key, self.id_bits)
        return min(self._nodes, key=lambda nid: nid ^ target)
