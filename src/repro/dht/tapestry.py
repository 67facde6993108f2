"""Tapestry DHT substrate (Zhao, Kubiatowicz & Joseph, 2002).

The fourth substrate the paper's §1 names.  Like Pastry, Tapestry routes
by resolving one identifier digit per hop through per-level neighbor
tables; its distinguishing mechanism is **surrogate routing**: when the
exact next-digit entry is missing, the message deterministically takes
the next existing digit at that level (wrapping), so every identifier
resolves to a unique *surrogate root* without leaf sets or numeric
distance.  A key is stored at its surrogate root.

Built statically from global membership, like the other
prefix/XOR-routing substrates; Chord and CAN are the dynamic-membership
overlays in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.hashing import hash_key
from repro.dht.metrics import MetricsRecorder
from repro.dht.pastry import PrefixRoutedDHT

__all__ = ["TapestryDHT", "TapestryNode"]


@dataclass(slots=True)
class TapestryNode:
    """One Tapestry peer: identifier and per-level routing table (its
    keys live in the kernel's peer store).

    ``table[level][digit]`` holds a node whose identifier matches this
    node's first ``level`` digits and continues with ``digit`` — or
    ``None`` when no such node exists (surrogate routing skips it).
    """

    id: int
    table: list[list[int | None]] = field(default_factory=list)


class TapestryDHT(PrefixRoutedDHT):
    """A simulated Tapestry overlay implementing the generic DHT API."""

    #: Audit note (cf. the kernel's owner-first default): surrogate
    #: resolution is O(digits · N) here — *more* than the O(N) holder
    #: scan — so the scan-first read order is kept deliberately.
    OWNER_FIRST_READS = False

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        id_bits: int = 32,
        b: int = 4,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        super().__init__(n_peers, seed, id_bits, b, metrics)
        self._nodes: dict[int, TapestryNode] = {}
        # set(): this overlay registers in a set's iteration order, which
        # pins its oracle-scan order (see SubstrateBase._draw_ids).
        for nid in set(self._draw_ids(n_peers, id_bits)):
            self._nodes[nid] = TapestryNode(id=nid)
            self.peers.add_peer(nid)
        self._build_tables()

    # ------------------------------------------------------------------
    # Table construction and surrogate resolution
    # ------------------------------------------------------------------

    def _build_tables(self) -> None:
        ordered = sorted(self._nodes)
        for node in self._nodes.values():
            node.table = [
                [None] * self.digit_base for _ in range(self.n_digits)
            ]
            for other in ordered:
                if other == node.id:
                    continue
                level = self.shared_prefix_len(node.id, other)
                if level >= self.n_digits:
                    continue
                digit = self._digit(other, level)
                current = node.table[level][digit]
                # Prefer the entry whose remaining digits are smallest —
                # deterministic, so all nodes agree on surrogate roots.
                if current is None or other < current:
                    node.table[level][digit] = other

    def surrogate_root(self, key_id: int) -> int:
        """The unique node that owns ``key_id`` under surrogate routing.

        Resolves digits left to right over the *global* membership: at
        each level take the smallest present digit ≥ the key's digit
        (wrapping to 0), among nodes matching the prefix chosen so far.
        """
        candidates = list(self.peers.sorted_ids())
        prefix_choice: list[int] = []
        for level in range(self.n_digits):
            present = sorted(
                {self._digit(nid, level) for nid in candidates}
            )
            want = self._digit(key_id, level)
            chosen = next((d for d in present if d >= want), present[0])
            candidates = [
                nid for nid in candidates if self._digit(nid, level) == chosen
            ]
            prefix_choice.append(chosen)
            if len(candidates) == 1:
                return candidates[0]
        return candidates[0]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route_id(self, start: int, key_id: int) -> tuple[int, int]:
        """Digit-by-digit forwarding with surrogate fallback."""
        current = start
        hops = 0
        for level in range(self.n_digits):
            node = self._nodes[current]
            if self._digit(current, level) == self._digit(key_id, level):
                continue  # this digit already matches; resolve the next
            row = node.table[level]
            want = self._digit(key_id, level)
            nxt = None
            for offset in range(self.digit_base):
                candidate_digit = (want + offset) % self.digit_base
                if candidate_digit == self._digit(current, level):
                    # staying at the current node resolves this level
                    nxt = current
                    break
                if row[candidate_digit] is not None:
                    nxt = row[candidate_digit]
                    break
            if nxt is None or nxt == current:
                continue  # surrogate: keep our own digit at this level
            current = nxt
            hops += 1
        return current, hops

    def route(self, key: str) -> tuple[int, int]:
        owner, hops = self.route_id(self._gateway(), hash_key(key, self.id_bits))
        return owner, max(hops, 1)

    # ------------------------------------------------------------------
    # Placement oracle
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> int:
        return self.surrogate_root(hash_key(key, self.id_bits))
