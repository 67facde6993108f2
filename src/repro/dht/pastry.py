"""Pastry DHT substrate (Rowstron & Druschel, Middleware 2001).

Prefix routing over base-``2**b`` digit identifiers with a routing table
(one row per shared-prefix length, one column per next digit) and a leaf
set of the ``L`` numerically closest peers.  Routing forwards to a peer
whose identifier shares a strictly longer prefix with the key — or, when
the key falls inside the leaf-set range, directly to the numerically
closest leaf — giving ``O(log_{2^b} N)`` hops.

Like :class:`~repro.dht.kademlia.KademliaDHT`, the overlay is built
statically from global membership (a converged network); Chord is the
substrate used for dynamic churn studies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable

from repro.dht.hashing import hash_key
from repro.dht.kernel import SubstrateBase
from repro.errors import ConfigurationError, RoutingError

__all__ = ["PastryDHT", "PastryNode", "PrefixRoutedDHT"]


@dataclass(slots=True)
class PastryNode:
    """One Pastry peer: identifier, routing table and leaf set (its keys
    live in the kernel's peer store)."""

    id: int
    routing_table: list[list[int | None]] = field(default_factory=list)
    leaf_set: list[int] = field(default_factory=list)


class PrefixRoutedDHT(SubstrateBase):
    """The identifier geometry Pastry and Tapestry share: ``id_bits``-wide
    ids read as ``n_digits`` base-``2**b`` digits, most significant
    first, resolved one digit per hop."""

    def __init__(
        self,
        n_peers: int,
        seed: int,
        id_bits: int,
        b: int,
    ) -> None:
        super().__init__(n_peers, seed)
        if id_bits % b != 0:
            raise ConfigurationError(
                f"id_bits ({id_bits}) must be a multiple of b ({b})"
            )
        self.id_bits = id_bits
        self.b = b
        self.n_digits = id_bits // b
        self.digit_base = 1 << b

    @abc.abstractmethod
    def route(self, key: str) -> tuple[int, int]:
        """Still abstract: this class is geometry, not an overlay."""

    def _digit(self, node_id: int, position: int) -> int:
        """The ``position``-th digit (most significant first)."""
        shift = self.id_bits - (position + 1) * self.b
        return (node_id >> shift) & (self.digit_base - 1)

    def shared_prefix_len(self, a: int, c: int) -> int:
        """Number of leading digits ``a`` and ``c`` share."""
        return (self.id_bits - (a ^ c).bit_length()) // self.b


class PastryDHT(PrefixRoutedDHT):
    """A simulated Pastry overlay implementing the generic DHT interface."""

    MAX_ROUTE_HOPS = 128
    #: Leaf-set size: the numerically closest peers, half on each side.
    LEAF_SET_SIZE = 8

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        id_bits: int = 32,
        b: int = 4,
    ) -> None:
        super().__init__(n_peers, seed, id_bits, b)
        self._nodes: dict[int, PastryNode] = {}
        # set(): this overlay registers in a set's iteration order, which
        # pins its oracle-scan order (see SubstrateBase._draw_ids).
        for nid in set(self._draw_ids(n_peers, id_bits)):
            self._nodes[nid] = PastryNode(id=nid)
            self.peers.add_peer(nid)
        self._build_tables()

    # ------------------------------------------------------------------
    # Static overlay construction
    # ------------------------------------------------------------------

    def _build_tables(self) -> None:
        ordered = sorted(self._nodes)
        n = len(ordered)
        index_of = {nid: i for i, nid in enumerate(ordered)}
        half = self.LEAF_SET_SIZE // 2
        for node in self._nodes.values():
            i = index_of[node.id]
            node.leaf_set = sorted(
                {
                    ordered[(i + off) % n]
                    for off in range(-half, half + 1)
                    if off != 0 and n > 1
                }
            )
            node.routing_table = [
                [None] * self.digit_base for _ in range(self.n_digits)
            ]
            for other in ordered:
                if other == node.id:
                    continue
                row = self.shared_prefix_len(node.id, other)
                if row >= self.n_digits:
                    continue
                col = self._digit(other, row)
                if node.routing_table[row][col] is None:
                    node.routing_table[row][col] = other

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @staticmethod
    def _circular_diff(a: int, c: int, space: int) -> int:
        d = abs(a - c)
        return min(d, space - d)

    def _numerically_closest(self, candidates: Iterable[int], key_id: int) -> int:
        space = 1 << self.id_bits
        return min(candidates, key=lambda c: (self._circular_diff(c, key_id, space), c))

    def route_id(self, start: int, key_id: int) -> tuple[int, int]:
        """Route from ``start`` towards ``key_id``; returns (owner, hops)."""
        current = start
        hops = 0
        space = 1 << self.id_bits
        for _ in range(self.MAX_ROUTE_HOPS):
            node = self._nodes[current]
            candidates = set(node.leaf_set) | {current}
            # Leaf-set shortcut: if the key falls within leaf-set coverage,
            # deliver to the numerically closest member.
            closest = self._numerically_closest(candidates, key_id)
            if closest == current:
                return current, hops
            row = self.shared_prefix_len(current, key_id)
            nxt: int | None = None
            if row < self.n_digits:
                nxt = node.routing_table[row][self._digit(key_id, row)]
            if nxt is None:
                # Rare case: fall back to any known node strictly closer.
                better = [
                    c
                    for c in candidates
                    if self._circular_diff(c, key_id, space)
                    < self._circular_diff(current, key_id, space)
                ]
                if not better:
                    return current, hops
                nxt = self._numerically_closest(better, key_id)
            current = nxt
            hops += 1
        raise RoutingError(f"Pastry routing exceeded {self.MAX_ROUTE_HOPS} hops")

    def route(self, key: str) -> tuple[int, int]:
        owner, hops = self.route_id(self._gateway(), hash_key(key, self.id_bits))
        return owner, max(hops, 1)

    # ------------------------------------------------------------------
    # Placement oracle
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> int:
        key_id = hash_key(key, self.id_bits)
        return self._numerically_closest(self._nodes, key_id)
