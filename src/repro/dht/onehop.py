"""Single-hop DHT substrate (D1HT-style; Monnerat & Amorim, IPDPS 2006).

Every live peer maintains the complete sorted peer-id table, so a routed
operation on a converged overlay is exactly **one hop**: the gateway
computes the key's owner from its own table and contacts it directly.
What a single-hop DHT buys with that table it pays in maintenance —
membership events must reach every peer — and D1HT disseminates them in
batched event rounds (EDRA).  This simulation models that dissemination
explicitly rather than assuming instant global knowledge:

* a **joining** peer takes over its key range immediately (it is live
  and responsible from the moment it joins) but spends a *quarantine
  window* of ``quarantine_rounds`` dissemination rounds outside other
  peers' tables — until the join event lands, lookups for its keys still
  contact the previous owner, which forwards them: one extra hop,
  D1HT's bounded-staleness guarantee;
* **leave/crash** events propagate on the next round; a stale table may
  still name a dead peer, costing one timed-out probe per dead entry
  until the event lands.

:meth:`disseminate` advances the event horizon one round at a time (the
churn soak interleaves it with traffic so stale-table corrections are
actually exercised), :meth:`settle` drains every pending event, and
:meth:`check_tables` raises if table coherence is not restored once the
overlay has quiesced.  The benchgate metric ``hops_per_op_onehop`` pins
the converged cost at exactly 1.0.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.dht.hashing import hash_key, in_half_open_interval, successor_in
from repro.dht.kernel import SubstrateBase
from repro.dht.metrics import MetricsRecorder
from repro.errors import ConfigurationError, EmptyOverlayError, RoutingError

__all__ = ["OneHopDHT", "OneHopNode"]


@dataclass(slots=True)
class OneHopNode:
    """One single-hop peer: identifier and full table view (its keys
    live in the kernel's peer store)."""

    id: int
    table: list[int] = field(default_factory=list)


@dataclass(slots=True)
class _Event:
    """A membership event awaiting dissemination to every table."""

    kind: str  # "join" | "leave"
    peer_id: int
    rounds_left: int


class OneHopDHT(SubstrateBase):
    """A simulated single-hop overlay implementing the generic DHT interface.

    Args:
        n_peers: Initial overlay size (peer ids drawn uniformly at random).
        seed: RNG seed for peer ids and gateway selection.
        id_bits: Identifier width (ring size ``2**id_bits``).
        quarantine_rounds: Dissemination rounds a join event waits before
            the joiner becomes routable in other peers' tables.
        metrics: Optional shared recorder.
    """

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        id_bits: int = 32,
        quarantine_rounds: int = 2,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        super().__init__(n_peers, seed, metrics)
        if quarantine_rounds < 1:
            raise ConfigurationError(
                f"quarantine_rounds must be >= 1: {quarantine_rounds}"
            )
        self.id_bits = id_bits
        self.space = 1 << id_bits
        self.quarantine_rounds = quarantine_rounds
        self._nodes: dict[int, OneHopNode] = {}
        self._pending: list[_Event] = []
        ids = self._draw_ids(n_peers, id_bits)
        full_table = sorted(ids)
        for node_id in ids:
            self._nodes[node_id] = OneHopNode(id=node_id, table=list(full_table))
            self.peers.add_peer(node_id)

    # ------------------------------------------------------------------
    # Routing: direct owner computation from the gateway's table
    # ------------------------------------------------------------------

    def route(self, key: str) -> tuple[int, int]:
        kid = hash_key(key, self.id_bits)
        gateway_id = self._gateway()
        owner = self.peers.successor_of(kid)
        if not self._pending:
            # Converged fast path: every table equals the membership
            # (the invariant ``check_tables`` pins once dissemination
            # quiesces), so the table walk below would find the live
            # owner on its first probe — exactly one hop, no staleness
            # forward.  The gateway draw above stays, keeping the RNG
            # stream byte-identical to the general path.
            return owner, 1
        view = self._nodes[gateway_id].table
        hops = 1  # direct contact with the owner candidate
        idx = bisect.bisect_left(view, kid)
        candidate = owner
        for probe in range(len(view)):
            candidate = view[(idx + probe) % len(view)]
            if self.peers.is_live(candidate):
                break
            hops += 1  # timed-out probe of a dead table entry
        if candidate != owner:
            hops += 1  # stale view: the contacted peer forwards to the owner
        return owner, hops

    def peer_of(self, key: str) -> int:
        return self.peers.successor_of(hash_key(key, self.id_bits))

    # ------------------------------------------------------------------
    # Membership protocol (event dissemination with join quarantine)
    # ------------------------------------------------------------------

    def join(self, node_id: int | None = None) -> int:
        """Join a new peer; returns its id.

        The joiner copies the current global table (its successor hands
        it over, as D1HT's join does), takes over its key range, and
        queues a join event that other peers only apply once the
        quarantine window has elapsed.
        """
        node_id = self._joiner_id(node_id, self.id_bits)
        ids = self.peers.sorted_ids()
        succ_id = successor_in(ids, node_id)
        pred_id = ids[(bisect.bisect_left(ids, node_id) - 1) % len(ids)]
        self._nodes[node_id] = OneHopNode(id=node_id, table=sorted([*ids, node_id]))
        self.peers.add_peer(node_id)
        self.keys_transferred += self.peers.move_keys(
            succ_id,
            node_id,
            lambda k: in_half_open_interval(
                hash_key(k, self.id_bits), pred_id, node_id, self.space
            ),
        )
        self._pending.append(_Event("join", node_id, self.quarantine_rounds))
        return node_id

    def leave(self, node_id: int, graceful: bool = True) -> None:
        """Remove a peer; graceful leaves hand their keys to the successor."""
        if node_id not in self._nodes:
            return
        if len(self._nodes) == 1:
            raise EmptyOverlayError("cannot remove the last peer")
        del self._nodes[node_id]
        orphaned = self.peers.remove_peer(node_id)
        if graceful:
            self.keys_transferred += self.peers.adopt(
                self.peers.successor_of(node_id), orphaned
            )
        self._pending.append(_Event("leave", node_id, 1))

    def fail(self, node_id: int) -> None:
        """Crash a peer without key handoff (keys are lost until re-put)."""
        self.leave(node_id, graceful=False)

    # ------------------------------------------------------------------
    # Event dissemination (the maintenance protocol)
    # ------------------------------------------------------------------

    def disseminate(self, rounds: int = 1) -> None:
        """Advance the event horizon ``rounds`` dissemination rounds.

        Events whose delay has elapsed are applied to *every* live
        peer's table in one batch — the single-round stand-in for
        D1HT's log-time event-propagation trees.
        """
        for _ in range(rounds):
            if not self._pending:
                return
            for event in self._pending:
                event.rounds_left -= 1
            ready = [e for e in self._pending if e.rounds_left <= 0]
            self._pending = [e for e in self._pending if e.rounds_left > 0]
            for event in ready:
                # A joiner that already left/crashed must not re-enter.
                add = event.kind == "join" and self.peers.is_live(event.peer_id)
                for node in self._nodes.values():
                    pos = bisect.bisect_left(node.table, event.peer_id)
                    present = (
                        pos < len(node.table) and node.table[pos] == event.peer_id
                    )
                    if add and not present:
                        node.table.insert(pos, event.peer_id)
                    elif not add and present:
                        del node.table[pos]

    def settle(self) -> int:
        """Disseminate until no events are pending; returns rounds spent."""
        rounds = 0
        while self._pending:
            self.disseminate()
            rounds += 1
        return rounds

    @property
    def converged(self) -> bool:
        """Whether every table equals the live membership."""
        if self._pending:
            return False
        ids = self.peers.sorted_ids()
        return all(node.table == ids for node in self._nodes.values())

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check_tables(self) -> None:
        """Raise unless tables are well-formed (and, once the overlay
        has quiesced, exactly equal to the live membership)."""
        ids = self.peers.sorted_ids()
        for node in self._nodes.values():
            if node.table != sorted(set(node.table)):
                raise RoutingError(f"peer {node.id} table unsorted or duplicated")
            pos = bisect.bisect_left(node.table, node.id)
            if pos >= len(node.table) or node.table[pos] != node.id:
                raise RoutingError(f"peer {node.id} is missing from its own table")
            if not self._pending and node.table != ids:
                raise RoutingError(
                    f"peer {node.id} table diverges from membership after "
                    "dissemination quiesced"
                )
