"""Topology-aware replica placement policies, one per substrate family.

Real single-hop systems replicate onto topology neighbors of the owner
— D1HT onto the owner's *successors*, Pastry onto the *leaf set*, CAN
onto *zone neighbors* — because such a holder is exactly where routing
converges after the owner fails, so a failed lookup can be rescued by
probing a known peer one hop away.

Each policy here implements the :class:`~repro.dht.kernel.PlacementPolicy`
contract (pure, owner-first, distinct live peers, graceful degradation;
enforced by flow rule LHT013 and the conformance matrix in
``tests/test_placement.py``) for one substrate family:

========================  =============================================
policy                    substrate family (registry enrollment)
========================  =============================================
:class:`SuccessorListPolicy`  Chord, Koorde, Local — ring successors
:class:`TableSlicePolicy`     OneHop — slice of the full routing table
:class:`LeafSetPolicy`        Pastry — numerically closest (leaf set)
:class:`ZoneNeighborsPolicy`  CAN — zone adjacency, widened breadth-first
:class:`ClosestIdsPolicy`     Kademlia, Tapestry — XOR-closest ids
========================  =============================================

Policies are enrolled through
:class:`~repro.dht.registry.SubstrateSpec` so the registry stays the
single enrollment point; :func:`repro.dht.registry.placement_for`
resolves the policy for a (possibly wrapped) overlay instance.

This module lives in ``repro.dht`` — not the kernel — because policies
read the *membership* surface (``peers.sorted_ids()``), which the
LHT008 layering rule reserves for this package.  They never touch the
storage surface: placement decides *where* copies go, the replication
wrapper moves the bytes through the kernel choke point.
"""

from __future__ import annotations

import bisect

from repro.dht.hashing import hash_key
from repro.dht.kernel import PlacementPolicy

__all__ = [
    "SuccessorListPolicy",
    "TableSlicePolicy",
    "LeafSetPolicy",
    "ZoneNeighborsPolicy",
    "ClosestIdsPolicy",
]


class SuccessorListPolicy(PlacementPolicy):
    """Replicas on the owner's ring successors (Chord, Koorde, Local).

    The D1HT/DHash placement: copies live on the ``k - 1`` peers that
    immediately follow the owner on the identifier ring.  When the
    owner fails, Chord-style stabilization promotes exactly its first
    live successor to own the key range — which already holds the first
    replica — so post-crash routing converges on a peer that has the
    data without any repair traffic.
    """

    def replicas_for(self, key: str, owner: int, k: int) -> list[int]:
        ring = self.substrate.peers.sorted_ids()
        n = len(ring)
        idx = bisect.bisect_left(ring, owner)
        return [ring[(idx + i) % n] for i in range(min(k, n))]


class TableSlicePolicy(SuccessorListPolicy):
    """Replicas on a slice of the full routing table (OneHop).

    In a one-hop overlay every peer already holds the complete sorted
    membership table, so the ``k``-entry slice starting at the owner's
    table index is known to *every* peer locally — replica holders can
    be addressed without any routing state beyond what one-hop lookup
    already maintains.  Mechanically this is the successor slice of the
    shared table, so the ring arithmetic is inherited.
    """


class LeafSetPolicy(PlacementPolicy):
    """Replicas on the numerically closest ids (Pastry's leaf set).

    PAST replicates onto the ``k`` nodes whose ids are numerically
    closest to the key's root — the owner's leaf-set members.  Pastry's
    leaf-set shortcut delivers any key that falls inside leaf-set
    coverage to the numerically closest live member, so after the owner
    fails, routing lands on precisely the next-closest id: the first
    replica below.
    """

    def replicas_for(self, key: str, owner: int, k: int) -> list[int]:
        substrate = self.substrate
        space = 1 << substrate.id_bits
        ids = substrate.peers.sorted_ids()

        def circular(nid: int) -> tuple[int, int]:
            d = abs(nid - owner)
            return (min(d, space - d), nid)

        # The owner is at circular distance 0, hence first.
        return sorted(ids, key=circular)[: min(k, len(ids))]


class ZoneNeighborsPolicy(PlacementPolicy):
    """Replicas on zone-adjacent peers (CAN).

    CAN's overlay neighbors are the peers whose coordinate zones abut
    the owner's zone — the peers a takeover merges with when the owner
    leaves, so a copy on a zone neighbor sits exactly where the key's
    zone migrates.  Adjacency is widened breadth-first (neighbors, then
    neighbors-of-neighbors, in sorted-id order for determinism) so the
    policy degrades gracefully when the owner has fewer than ``k - 1``
    direct neighbors; the torus is connected, so every live peer is
    eventually reachable.
    """

    def replicas_for(self, key: str, owner: int, k: int) -> list[int]:
        substrate = self.substrate
        alive = substrate.peers.is_live
        chosen = [owner]
        seen = {owner}
        frontier = [owner]
        while frontier and len(chosen) < k:
            next_frontier: list[int] = []
            for nid in frontier:
                for neighbor in sorted(substrate.zone_neighbors(nid)):
                    if neighbor in seen or not alive(neighbor):
                        continue
                    seen.add(neighbor)
                    chosen.append(neighbor)
                    next_frontier.append(neighbor)
                    if len(chosen) == k:
                        return chosen
            frontier = next_frontier
        return chosen


class ClosestIdsPolicy(PlacementPolicy):
    """Replicas on the XOR-closest ids to the key (Kademlia, Tapestry).

    Kademlia's STORE places values on the ``k`` nodes closest to the
    key in XOR metric; a reader's iterative lookup converges on that
    same closest set, so any live member answers.  Tapestry's surrogate
    root is its deterministic stand-in for "closest", so the same
    ordering serves both — with the routed owner pinned first, since
    the surrogate may differ from the strict XOR minimum.
    """

    def replicas_for(self, key: str, owner: int, k: int) -> list[int]:
        substrate = self.substrate
        target = hash_key(key, substrate.id_bits)
        ids = substrate.peers.sorted_ids()
        ordered = sorted(ids, key=lambda nid: (nid ^ target, nid))
        return [owner, *(nid for nid in ordered if nid != owner)][
            : min(k, len(ids))
        ]
