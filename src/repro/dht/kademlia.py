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

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.dht.hashing import hash_key
from repro.dht.kernel import SubstrateBase
from repro.errors import ConfigurationError, RoutingError

__all__ = ["KademliaDHT", "KademliaNode"]


@dataclass(slots=True)
class KademliaNode:
    """One Kademlia peer: identifier, k-buckets and the candidate lists
    its FIND_NODE answers are drawn from (its keys live in the kernel's
    peer store)."""

    id: int
    buckets: list[list[int]] = field(default_factory=list)
    #: ``candidates[(id ^ t).bit_length()]`` is a superset of the node's
    #: k known ids (itself included) closest to any target ``t`` (see
    #: :meth:`KademliaDHT._candidates`).  The overlay is static, so these
    #: are built once, at construction.
    candidates: list[list[int]] = field(default_factory=list)


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
    ) -> None:
        super().__init__(n_peers, seed)
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
            node.candidates = [
                self._candidates(node, i) for i in range(self.id_bits + 1)
            ]

    def _candidates(self, node: KademliaNode, i: int) -> list[int]:
        """The ids ``node`` ranks for a target ``t`` with
        ``(node.id ^ t).bit_length() == i``.

        With ``h = i - 1`` the top bit of ``node.id ^ t``, XOR's prefix
        structure orders the node's known ids in strict distance groups:
        bucket ``h`` (distance top bit below ``h``), then the node itself
        with buckets ``0..h-1`` (top bit exactly ``h``), then bucket
        ``h+1``, ``h+2``, … (top bit ``h+1``, ``h+2``, …).  So the k
        closest lie in the shortest prefix of those groups that holds
        ``k`` ids — all ``t`` with the same ``i`` share it.
        """
        buckets = node.buckets
        nearest = buckets[i - 1] if i else []
        if len(nearest) >= self.k:
            return nearest
        out = [*nearest, node.id]
        for bucket in buckets[: max(i - 1, 0)]:
            out += bucket
        for bucket in buckets[i:]:
            if len(out) >= self.k:
                break
            out += bucket
        return out

    # ------------------------------------------------------------------
    # Iterative lookup
    # ------------------------------------------------------------------

    def _find_node(self, node_id: int, target: int) -> list[int]:
        """A node's answer to FIND_NODE: the XOR distances to ``target``
        of the k ids it knows (itself included, as real implementations
        do) that are closest to ``target``, closest first."""
        candidates = self._nodes[node_id].candidates[(node_id ^ target).bit_length()]
        return sorted([c ^ target for c in candidates])[: self.k]

    def iterative_find(self, start: int, target: int) -> tuple[int, int]:
        """Locate the globally XOR-closest node to ``target``.

        Returns ``(closest_node_id, messages_sent)``.  The shortlist is
        kept as distances to ``target`` (``id = distance ^ target``), so
        it sorts as plain ints.
        """
        queried: set[int] = set()
        shortlist = self._find_node(start, target)
        messages = 0
        for _ in range(self.MAX_ROUNDS):
            pending = [d for d in shortlist if d not in queried]
            if not pending:
                break
            best_before = shortlist[0]
            for distance in pending[: self.alpha]:
                queried.add(distance)
                messages += 1
                learned = self._find_node(distance ^ target, target)
                # Only the k closest ever matter: an id that more ids
                # push out of the top k never re-enters it.
                shortlist = sorted(set(shortlist).union(learned))[: self.k]
            if shortlist[0] == best_before and queried.issuperset(shortlist):
                break
        else:
            raise RoutingError(f"Kademlia lookup did not converge on {target}")
        return shortlist[0] ^ target, max(messages, 1)

    def route(self, key: str) -> tuple[int, int]:
        return self.iterative_find(self._gateway(), hash_key(key, self.id_bits))

    # ------------------------------------------------------------------
    # Placement oracle
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> int:
        """The XOR-closest live id to ``hash(key)``: walk the bits from
        the top, keeping the half of the sorted ids whose bit matches the
        target's whenever that half is non-empty."""
        target = hash_key(key, self.id_bits)
        ids = self.peers.sorted_ids()
        lo, hi, prefix = 0, len(ids), 0
        bit = self.id_bits
        while hi - lo > 1:
            bit -= 1
            upper = prefix | 1 << bit
            split = bisect_left(ids, upper, lo, hi)
            if split == lo or (split < hi and target & 1 << bit):
                lo, prefix = split, upper
            else:
                hi = split
        return ids[lo]
