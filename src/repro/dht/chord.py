"""Chord DHT substrate (Stoica et al., SIGCOMM 2001).

A faithful single-process simulation of the Chord ring the paper's
"generic DHT" abstracts over: ``m``-bit identifiers, finger tables,
successor lists, predecessor pointers, iterative routing with
closest-preceding-finger forwarding, node join/leave with key transfer,
and the periodic ``stabilize``/``fix_fingers`` protocol that repairs the
ring under churn.

Routing is executed synchronously (a routed operation returns its result
and hop count immediately); the *maintenance* protocol is driven either
manually (:meth:`ChordDHT.stabilize_all`) or by the discrete-event churn
driver in :mod:`repro.dht.churn`.

Storage, metrics charging, and the array-backed sorted-ring index live
in the shared peer-store kernel (:mod:`repro.dht.kernel`); this module
contains only what is Chord: the routing geometry and the
membership/stabilization protocol.  Join and leave cost one incremental
index splice (``bisect.insort`` / positional delete) in the kernel, not
a full ring re-sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.hashing import (
    hash_key,
    in_half_open_interval,
    in_open_interval,
    successor_in,
)
from repro.dht.kernel import SubstrateBase
from repro.errors import ConfigurationError, EmptyOverlayError, RoutingError

__all__ = ["ChordDHT", "ChordNode"]


@dataclass(slots=True)
class ChordNode:
    """One Chord peer: identifier, pointers and finger table (its keys
    live in the kernel's peer store)."""

    id: int
    successors: list[int] = field(default_factory=list)
    predecessor: int | None = None
    fingers: list[int | None] = field(default_factory=list)
    _next_finger: int = 0

    @property
    def successor(self) -> int | None:
        """First entry of the successor list (may be stale under churn)."""
        return self.successors[0] if self.successors else None


class ChordDHT(SubstrateBase):
    """A simulated Chord overlay implementing the generic DHT interface.

    Args:
        n_peers: Initial ring size (peer ids drawn uniformly at random).
        seed: RNG seed for peer ids and gateway selection.
        id_bits: Identifier width ``m`` (ring size ``2**m``).

    The initial ring is built with exact pointers; subsequent joins and
    leaves go through the real protocol (route-to-successor, key transfer,
    stabilization).
    """

    MAX_ROUTE_HOPS = 256
    #: Length of each node's successor list (fault tolerance under churn).
    SUCCESSOR_LIST_LEN = 4

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        id_bits: int = 32,
    ) -> None:
        super().__init__(n_peers, seed)
        if not 8 <= id_bits <= 160:
            raise ConfigurationError(f"id_bits must be in [8, 160]: {id_bits}")
        self.id_bits = id_bits
        self.space = 1 << id_bits
        self._nodes: dict[int, ChordNode] = {}
        for node_id in self._draw_ids(n_peers, id_bits):
            self._register(ChordNode(id=node_id))
        self.build_ring()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _register(self, node: ChordNode) -> None:
        """Add a node to the topology and to the kernel's membership."""
        self._nodes[node.id] = node
        self.peers.add_peer(node.id)

    def build_ring(self) -> None:
        """(Re)compute exact successors, predecessors and fingers globally.

        Used for initial construction and by tests that need a converged
        ring without running stabilization rounds.
        """
        ordered = self.peers.sorted_ids()
        n = len(ordered)
        for idx, node_id in enumerate(ordered):
            node = self._nodes[node_id]
            node.successors = [
                ordered[(idx + k + 1) % n]
                for k in range(min(self.SUCCESSOR_LIST_LEN, n))
            ]
            node.predecessor = ordered[(idx - 1) % n]
            node.fingers = [
                successor_in(ordered, (node_id + (1 << i)) % self.space)
                for i in range(self.id_bits)
            ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _alive(self, node_id: int | None) -> bool:
        return node_id is not None and node_id in self._nodes

    def _live_successor(self, node: ChordNode) -> int:
        """First alive successor-list entry; prunes dead ones."""
        node.successors = [s for s in node.successors if self._alive(s)]
        if not node.successors:
            if len(self._nodes) == 1:
                return node.id
            raise RoutingError(f"node {node.id} lost its entire successor list")
        return node.successors[0]

    def _closest_preceding(self, node: ChordNode, key_id: int) -> int:
        """Best alive finger strictly between ``node`` and ``key_id``."""
        for finger in reversed(node.fingers):
            if (
                self._alive(finger)
                and in_open_interval(finger, node.id, key_id, self.space)
            ):
                return finger  # type: ignore[return-value]
        for succ in reversed(node.successors):
            if self._alive(succ) and in_open_interval(
                succ, node.id, key_id, self.space
            ):
                return succ
        return node.id

    def find_successor(self, start: int, key_id: int) -> tuple[int, int]:
        """Iteratively route from ``start`` to the successor of ``key_id``.

        Returns ``(responsible_node_id, hop_count)``.
        """
        current = start
        hops = 0
        for _ in range(self.MAX_ROUTE_HOPS):
            node = self._nodes[current]
            succ = self._live_successor(node)
            hops += 1
            if succ == current or in_half_open_interval(
                key_id, current, succ, self.space
            ):
                return succ, hops
            nxt = self._closest_preceding(node, key_id)
            current = succ if nxt == current else nxt
        raise RoutingError(f"routing to {key_id} exceeded {self.MAX_ROUTE_HOPS} hops")

    def route(self, key: str) -> tuple[int, int]:
        kid = hash_key(key, self.id_bits)
        return self.find_successor(self._gateway(), kid)

    def peer_of(self, key: str) -> int:
        return self.peers.successor_of(hash_key(key, self.id_bits))

    # ------------------------------------------------------------------
    # Membership protocol
    # ------------------------------------------------------------------

    def join(self, node_id: int | None = None) -> int:
        """Join a new node through the real protocol; returns its id.

        The joiner routes to its successor, splices in, and takes over the
        keys it is now responsible for.
        """
        node_id = self._joiner_id(node_id, self.id_bits)
        succ_id, _ = self.find_successor(self._gateway(), node_id)
        succ = self._nodes[succ_id]
        node = ChordNode(id=node_id)
        node.successors = ([succ_id] + succ.successors)[: self.SUCCESSOR_LIST_LEN]
        node.fingers = [succ_id] * self.id_bits
        self._register(node)

        # Take over keys in (predecessor(succ), node_id].
        pred = succ.predecessor if self._alive(succ.predecessor) else succ_id
        self.keys_transferred += self.peers.move_keys(
            succ_id,
            node_id,
            lambda k: in_half_open_interval(
                hash_key(k, self.id_bits), pred, node_id, self.space
            ),
        )

        # Splice pointers immediately (stabilization would also converge).
        node.predecessor = pred if pred != succ_id else succ.predecessor
        succ.predecessor = node_id
        if self._alive(node.predecessor):
            pred_node = self._nodes[node.predecessor]  # type: ignore[index]
            pred_node.successors = ([node_id] + pred_node.successors)[
                : self.SUCCESSOR_LIST_LEN
            ]
        return node_id

    def leave(self, node_id: int, graceful: bool = True) -> None:
        """Remove a node; graceful leaves hand their keys to the successor."""
        node = self._nodes.get(node_id)
        if node is None:
            return
        if len(self._nodes) == 1:
            raise EmptyOverlayError("cannot remove the last peer")
        # Unregister first: the successor search must skip the leaver.  A
        # crash stops there: its keys are lost until re-published.
        del self._nodes[node_id]
        orphaned = self.peers.remove_peer(node_id)
        if graceful:
            succ_id = next((s for s in node.successors if self._alive(s)), None)
            if succ_id is None:
                succ_id = self.peers.successor_of(node_id)
            succ = self._nodes[succ_id]
            self.keys_transferred += self.peers.adopt(succ_id, orphaned)
            if self._alive(node.predecessor):
                pred = self._nodes[node.predecessor]  # type: ignore[index]
                pred.successors = [s for s in pred.successors if s != node_id]
                pred.successors = ([succ_id] + pred.successors)[
                    : self.SUCCESSOR_LIST_LEN
                ]
            if succ.predecessor == node_id:
                succ.predecessor = node.predecessor

    def fail(self, node_id: int) -> None:
        """Crash a node without key handoff (shorthand for ungraceful leave)."""
        self.leave(node_id, graceful=False)

    # ------------------------------------------------------------------
    # Stabilization (Chord's periodic maintenance)
    # ------------------------------------------------------------------

    def stabilize(self, node_id: int) -> None:
        """One stabilization round for one node (successor + notify)."""
        node = self._nodes.get(node_id)
        if node is None:
            return
        succ_id = self._live_successor(node)
        succ = self._nodes[succ_id]
        candidate = succ.predecessor
        if (
            self._alive(candidate)
            and candidate != node_id
            and in_open_interval(candidate, node_id, succ_id, self.space)  # type: ignore[arg-type]
        ):
            node.successors = ([candidate] + node.successors)[  # type: ignore[list-item]
                : self.SUCCESSOR_LIST_LEN
            ]
            succ_id = candidate  # type: ignore[assignment]
            succ = self._nodes[succ_id]
        # notify
        if (
            succ.predecessor is None
            or not self._alive(succ.predecessor)
            or in_open_interval(node_id, succ.predecessor, succ_id, self.space)
        ):
            succ.predecessor = node_id
        # refresh successor list from the (possibly new) successor
        node.successors = ([succ_id] + [s for s in succ.successors if s != node_id])[
            : self.SUCCESSOR_LIST_LEN
        ]

    def fix_fingers(self, node_id: int, count: int = 1) -> None:
        """Refresh ``count`` finger-table entries of a node via routing."""
        node = self._nodes.get(node_id)
        if node is None:
            return
        if not node.fingers:
            node.fingers = [None] * self.id_bits
        for _ in range(count):
            i = node._next_finger
            node._next_finger = (node._next_finger + 1) % self.id_bits
            target = (node.id + (1 << i)) % self.space
            try:
                owner, _ = self.find_successor(node.id, target)
            except RoutingError:
                continue
            node.fingers[i] = owner

    def stabilize_all(self, rounds: int = 1, fingers_per_round: int = 4) -> None:
        """Run stabilization + finger repair for every node, ``rounds`` times."""
        for _ in range(rounds):
            for node_id in sorted(self._nodes):
                if node_id in self._nodes:
                    self.stabilize(node_id)
                    self.fix_fingers(node_id, fingers_per_round)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check_ring(self) -> None:
        """Assert the successor pointers form a single cycle over all nodes."""
        if not self._nodes:
            raise EmptyOverlayError("empty overlay")
        start = min(self._nodes)
        seen = {start}
        current = start
        for _ in range(len(self._nodes)):
            current = self._live_successor(self._nodes[current])
            if current == start:
                break
            if current in seen:
                raise RoutingError(f"successor cycle does not include all nodes")
            seen.add(current)
        if len(seen) != len(self._nodes):
            raise RoutingError(
                f"ring covers {len(seen)} of {len(self._nodes)} nodes"
            )
