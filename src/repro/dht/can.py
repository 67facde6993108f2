"""CAN DHT substrate (Ratnasamy et al., SIGCOMM 2001).

The Content-Addressable Network is the paper's §1 example of a
non-ring DHT: the identifier space is a ``d``-dimensional unit torus,
each node owns a hyper-rectangular *zone*, and keys hash to points.
Joins split the zone owning a random point in half (cycling through
dimensions); routing greedily forwards to the neighbor zone closest to
the target point, giving ``O(d · n^{1/d})`` hops.

Zone bounds are halved on split, so every coordinate is a dyadic float —
exact, like the LHT tree geometry.  Graceful departure uses CAN's *buddy
merge*: a node may leave when its zone's split partner is whole (the two
halves reunite); otherwise the caller must retry later (real CAN runs a
takeover protocol that leaves a node managing two zones — out of scope
here, and irrelevant to the index layers above).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.dht.kernel import SubstrateBase
from repro.errors import (
    ConfigurationError,
    EmptyOverlayError,
    NoSuchPeerError,
    RoutingError,
)

__all__ = ["CANDHT", "CANNode", "Zone"]


@dataclass(frozen=True, slots=True)
class Zone:
    """A half-open hyper-rectangle ``[lows, highs)`` of the unit torus."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    @property
    def dims(self) -> int:
        return len(self.lows)

    def contains(self, point: tuple[float, ...]) -> bool:
        return all(
            lo <= c < hi for c, lo, hi in zip(point, self.lows, self.highs)
        )

    def volume(self) -> float:
        out = 1.0
        for lo, hi in zip(self.lows, self.highs):
            out *= hi - lo
        return out

    def split(self, dim: int) -> tuple["Zone", "Zone"]:
        """Halve along ``dim``; returns (lower half, upper half)."""
        mid = (self.lows[dim] + self.highs[dim]) / 2.0
        lower = Zone(
            self.lows,
            tuple(mid if i == dim else h for i, h in enumerate(self.highs)),
        )
        upper = Zone(
            tuple(mid if i == dim else lo for i, lo in enumerate(self.lows)),
            self.highs,
        )
        return lower, upper

    def distance_to(self, point: tuple[float, ...]) -> float:
        """Squared torus distance from ``point`` to this zone."""
        total = 0.0
        for c, lo, hi in zip(point, self.lows, self.highs):
            if lo <= c < hi:
                continue
            # distance to the nearer edge, allowing wraparound
            direct = min(abs(c - lo), abs(c - hi))
            wrapped = min(abs(c - lo + 1), abs(c - hi - 1),
                          abs(c - lo - 1), abs(c - hi + 1))
            gap = min(direct, wrapped)
            total += gap * gap
        return total

    def adjacent(self, other: "Zone") -> bool:
        """Whether two zones share a (d-1)-dimensional face on the torus."""
        touching_dims = 0
        for lo_a, hi_a, lo_b, hi_b in zip(
            self.lows, self.highs, other.lows, other.highs
        ):
            overlaps = lo_a < hi_b and lo_b < hi_a
            touches = (
                hi_a == lo_b
                or hi_b == lo_a
                or (hi_a == 1.0 and lo_b == 0.0)
                or (hi_b == 1.0 and lo_a == 0.0)
            )
            if overlaps:
                continue
            if touches:
                touching_dims += 1
            else:
                return False
        return touching_dims == 1


@dataclass(slots=True)
class CANNode:
    """One CAN peer: identifier, owned zone and neighbor set (its keys
    live in the kernel's peer store)."""

    id: int
    zone: Zone
    neighbors: set[int] = field(default_factory=set)
    next_split_dim: int = 0


class CANDHT(SubstrateBase):
    """A simulated CAN overlay implementing the generic DHT interface."""

    #: Finding the owning zone is itself an O(N) scan, so owner-first
    #: reads would cost a full pass before the holder scan they are
    #: meant to short-circuit.
    OWNER_FIRST_READS = False

    MAX_ROUTE_HOPS = 512

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        dims: int = 2,
    ) -> None:
        super().__init__(n_peers, seed)
        if dims < 1:
            raise ConfigurationError(f"dims must be >= 1: {dims}")
        self.dims = dims
        self._next_id = 0
        self._nodes: dict[int, CANNode] = {}
        first = CANNode(
            id=self._take_id(),
            zone=Zone((0.0,) * dims, (1.0,) * dims),
        )
        self._register(first)
        for _ in range(n_peers - 1):
            self.join()

    def _register(self, node: CANNode) -> None:
        """Add a node to the topology and to the kernel's membership."""
        self._nodes[node.id] = node
        self.peers.add_peer(node.id)

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    # ------------------------------------------------------------------
    # Key → point mapping
    # ------------------------------------------------------------------

    def key_point(self, key: str) -> tuple[float, ...]:
        """Hash a key to a point on the ``d``-torus."""
        digest = hashlib.sha1(key.encode()).digest()
        coords = []
        for d in range(self.dims):
            chunk = digest[4 * d : 4 * d + 4]
            coords.append(int.from_bytes(chunk, "big") / 2**32)
        return tuple(coords)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route_point(
        self, start: int, point: tuple[float, ...]
    ) -> tuple[int, int]:
        """Greedy-forward from ``start`` to the zone owning ``point``."""
        current = start
        hops = 0
        for _ in range(self.MAX_ROUTE_HOPS):
            node = self._nodes[current]
            if node.zone.contains(point):
                return current, hops
            best = None
            best_distance = node.zone.distance_to(point)
            for neighbor_id in node.neighbors:
                neighbor = self._nodes.get(neighbor_id)
                if neighbor is None:
                    continue
                distance = neighbor.zone.distance_to(point)
                if best is None or distance < best_distance:
                    best = neighbor_id
                    best_distance = distance
            if best is None:
                raise RoutingError(
                    f"CAN greedy routing stalled at node {current}"
                )
            current = best
            hops += 1
        raise RoutingError(f"CAN routing exceeded {self.MAX_ROUTE_HOPS} hops")

    def route(self, key: str) -> tuple[int, int]:
        owner, hops = self.route_point(self._gateway(), self.key_point(key))
        return owner, max(hops, 1)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _refresh_neighbors(self, around: Iterable[int]) -> None:
        """Recompute adjacency for the given nodes and their vicinity."""
        affected = set(around)
        for node_id in list(affected):
            affected.update(self._nodes[node_id].neighbors)
        for node_id in affected:
            node = self._nodes.get(node_id)
            if node is None:
                continue
            node.neighbors = {
                other.id
                for other in self._nodes.values()
                if other.id != node.id and node.zone.adjacent(other.zone)
            }

    def join(self) -> int:
        """A new node joins at a random point, splitting the owner's zone."""
        point = tuple(float(c) for c in self._rng.random(self.dims))
        owner_id, _ = self.route_point(self._gateway(), point)
        owner = self._nodes[owner_id]

        dim = owner.next_split_dim % self.dims
        lower, upper = owner.zone.split(dim)
        # The joiner takes the half containing its join point.
        if lower.contains(point):
            give, keep = lower, upper
        else:
            give, keep = upper, lower

        joiner = CANNode(
            id=self._take_id(), zone=give, next_split_dim=dim + 1
        )
        owner.zone = keep
        owner.next_split_dim = dim + 1
        self._register(joiner)

        self.keys_transferred += self.peers.move_keys(
            owner.id, joiner.id, lambda key: give.contains(self.key_point(key))
        )
        self._refresh_neighbors([owner.id, joiner.id])
        return joiner.id

    def leave(self, node_id: int) -> bool:
        """Graceful departure via buddy merge.

        Succeeds only when the zone's split partner is currently owned
        whole by a single node (then the halves reunite and keys move to
        the buddy); returns ``False`` otherwise.
        """
        node = self._nodes.get(node_id)
        if node is None:
            return False
        if len(self._nodes) == 1:
            raise EmptyOverlayError("cannot remove the last peer")
        for other in self._nodes.values():
            if other.id == node_id:
                continue
            merged = _try_merge(node.zone, other.zone)
            if merged is None:
                continue
            other.zone = merged
            del self._nodes[node_id]
            self.keys_transferred += self.peers.adopt(
                other.id, self.peers.remove_peer(node_id)
            )
            # Refresh around the leaver's former neighbors too: they must
            # drop the dead edge and may gain the merged zone as a new
            # neighbor, but need not be anywhere near the buddy.
            self._refresh_neighbors(
                [other.id, *(n for n in node.neighbors if n in self._nodes)]
            )
            return True
        return False

    # ------------------------------------------------------------------
    # Placement oracle and diagnostics
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> int:
        point = self.key_point(key)
        for node in self._nodes.values():
            if node.zone.contains(point):
                return node.id
        raise RoutingError(f"no zone contains point {point}")

    def zone_neighbors(self, peer_id: int) -> frozenset[int]:
        """Ids of the peers whose zones abut ``peer_id``'s zone.

        The topology surface behind
        :class:`~repro.dht.placement.ZoneNeighborsPolicy`: replica
        placement reads adjacency, it never reaches into zone geometry.
        """
        node = self._nodes.get(peer_id)
        if node is None:
            raise NoSuchPeerError(f"no such peer: {peer_id}")
        return frozenset(node.neighbors)

    def check_partition(self) -> None:
        """Assert zones tile the whole torus exactly once."""
        total = sum(node.zone.volume() for node in self._nodes.values())
        if abs(total - 1.0) > 1e-9:
            raise RoutingError(f"zone volumes sum to {total}, expected 1")
        probes = np.random.default_rng(0).random((200, self.dims))
        for probe in probes:
            point = tuple(float(c) for c in probe)
            owners = [
                n.id for n in self._nodes.values() if n.zone.contains(point)
            ]
            if len(owners) != 1:
                raise RoutingError(
                    f"point {point} owned by {len(owners)} zones"
                )


def _try_merge(a: Zone, b: Zone) -> Zone | None:
    """The union of two zones if it is a hyper-rectangle, else ``None``."""
    differing = [
        i
        for i in range(a.dims)
        if (a.lows[i], a.highs[i]) != (b.lows[i], b.highs[i])
    ]
    if len(differing) != 1:
        return None
    d = differing[0]
    if a.highs[d] == b.lows[d]:
        lo, hi = a, b
    elif b.highs[d] == a.lows[d]:
        lo, hi = b, a
    else:
        return None
    return Zone(
        lo.lows,
        tuple(hi.highs[i] if i == d else lo.highs[i] for i in range(a.dims)),
    )
