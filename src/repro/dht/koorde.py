"""Koorde DHT substrate (Kaashoek & Karger, IPTPS 2003).

Koorde embeds a degree-``k`` de Bruijn graph in the identifier ring:
node ``m`` keeps its ring successor plus a de Bruijn window — the
consecutive real nodes hosting the image ``(k*m, k*succ + k - 1]`` of
its imaginary arc, Θ(k) pointers in expectation.  Routing to
key ``t`` walks an *imaginary* de Bruijn node ``i``: each hop
shifts ``i`` left by ``b = log2(k)`` bits and injects the next ``b``-bit
digit of ``t`` (``i <- (i*k + digit) mod 2**id_bits``), while the real
node hosting ``i`` (its ring predecessor) jumps along its de Bruijn
window — which covers the next host by construction, so each digit
costs one hop (successor walks remain only as a defensive correction).
After all digits are injected ``i == t`` and the hosting node's
successor owns the key — ``O(log n / log log n)`` hops for degree
``k``, the
degree-vs-diameter extreme opposite :class:`~repro.dht.onehop.OneHopDHT`.

The start of the walk uses Koorde's best-entry optimization: the gateway
owns the whole interval ``(m, successor]`` of imaginary nodes, so it
picks the imaginary start ``i0`` in that interval whose low bits already
agree with ``t`` — injecting only the ``j`` lowest digits of ``t`` where
``j`` is the smallest count for which such an ``i0`` exists (roughly
``log_k n`` instead of the full digit count).

Static overlay like Kademlia/Pastry here: membership is fixed at
construction and churn is exercised through the shared fault/soak
matrices at the data layer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.dht.hashing import hash_key, in_half_open_interval, ring_distance
from repro.dht.kernel import SubstrateBase
from repro.dht.metrics import MetricsRecorder
from repro.errors import ConfigurationError, RoutingError

__all__ = ["KoordeDHT", "KoordeNode"]


@dataclass(slots=True)
class KoordeNode:
    """One Koorde peer: ring successor + de Bruijn pointer window (its
    keys live in the kernel's peer store)."""

    id: int
    successor: int = 0
    debruijn: list[int] = field(default_factory=list)


class KoordeDHT(SubstrateBase):
    """A simulated Koorde overlay implementing the generic DHT interface.

    Args:
        n_peers: Overlay size (peer ids drawn uniformly at random).
        seed: RNG seed for peer ids and gateway selection.
        id_bits: Identifier width; must be divisible by ``log2(degree)``.
        degree: de Bruijn degree ``k`` (power of two >= 2); each node
            keeps Θ(k) expected de Bruijn pointers and routes
            in ``O(log_k n)`` digit injections.
        metrics: Optional shared recorder.
    """

    MAX_ROUTE_HOPS = 4096

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        id_bits: int = 32,
        degree: int = 16,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        super().__init__(n_peers, seed, metrics)
        b = degree.bit_length() - 1
        if degree < 2 or (1 << b) != degree:
            raise ConfigurationError(f"degree must be a power of two >= 2: {degree}")
        if id_bits % b != 0:
            raise ConfigurationError(
                f"id_bits ({id_bits}) must be divisible by log2(degree) ({b})"
            )
        self.id_bits = id_bits
        self.space = 1 << id_bits
        self.degree = degree
        self.b = b
        self.n_digits = id_bits // b
        self._nodes: dict[int, KoordeNode] = {}

        ordered = sorted(self._draw_ids(n_peers, id_bits))
        for idx, node_id in enumerate(ordered):
            self._nodes[node_id] = KoordeNode(
                id=node_id,
                successor=ordered[(idx + 1) % n_peers],
                debruijn=self._build_window(ordered, idx),
            )
            self.peers.add_peer(node_id)

    def _build_window(self, ordered: list[int], idx: int) -> list[int]:
        """The de Bruijn window of ``ordered[idx]``: the consecutive real
        nodes hosting its imaginary arc's image ``(k*m, k*succ + k - 1]``,
        so one de Bruijn jump always reaches the next imaginary host."""
        n = len(ordered)
        node_id = ordered[idx]
        successor = ordered[(idx + 1) % n]
        span = ring_distance(node_id, successor, self.space) if n > 1 else 0
        arc_len = self.degree * span + self.degree - 1
        base_idx = (
            bisect.bisect_left(ordered, (node_id * self.degree) % self.space) - 1
        ) % n
        if arc_len >= self.space:
            count = n
        else:
            arc_end = (node_id * self.degree + arc_len) % self.space
            end_idx = (bisect.bisect_left(ordered, arc_end) - 1) % n
            count = ((end_idx - base_idx) % n) + 1
        count = min(max(count, min(self.degree, n)), n)
        return [ordered[(base_idx + j) % n] for j in range(count)]

    # ------------------------------------------------------------------
    # Routing: imaginary de Bruijn walk
    # ------------------------------------------------------------------

    def _predecessor(self, ordered: list[int], target: int) -> int:
        """The real node ``p`` hosting imaginary id ``target``
        (``target`` lies in ``(p, successor(p)]``)."""
        return ordered[(bisect.bisect_left(ordered, target) - 1) % len(ordered)]

    def _imaginary_start(self, m: int, succ: int, t: int) -> tuple[int, list[int]]:
        """Best imaginary start in ``(m, succ]`` for key id ``t``.

        Returns ``(i0, digits)`` where injecting ``digits`` (most
        significant first) into ``i0`` lands exactly on ``t``:
        ``i0``'s low ``id_bits - j*b`` bits must equal ``t >> j*b``, and
        ``j`` is minimized subject to ``i0`` falling inside the
        gateway's imaginary interval.
        """
        span = ring_distance(m, succ, self.space)  # interval is (m, m + span]
        for j in range(self.n_digits + 1):
            shift = j * self.b
            stride = self.space >> shift
            residue = (t >> shift) % stride
            offset = (residue - (m + 1)) % stride
            if offset <= span - 1:
                i0 = (m + 1 + offset) % self.space
                digits = [
                    (t >> (shift - (d + 1) * self.b)) & (self.degree - 1)
                    for d in range(j)
                ]
                return i0, digits
        raise RoutingError(
            f"no imaginary start for key id {t} at node {m}"
        )  # pragma: no cover - j == n_digits always matches

    def route_id(self, start: int, key_id: int) -> tuple[int, int]:
        """Route from ``start`` to ``key_id``'s owner; returns (owner, hops)."""
        ids = self.peers.sorted_ids()
        if len(ids) == 1:
            return start, 1
        current = start
        node = self._nodes[current]
        i, digits = self._imaginary_start(current, node.successor, key_id)
        hops = 0
        for digit in digits:
            i = ((i << self.b) | digit) % self.space
            target = self._predecessor(ids, i)
            node = self._nodes[current]
            # De Bruijn jump: the window covers the imaginary arc's
            # image, so the hosting node is normally present; falling
            # back to the window's end costs successor corrections.
            current = target if target in node.debruijn else node.debruijn[-1]
            hops += 1
            while not in_half_open_interval(
                i, current, self._nodes[current].successor, self.space
            ):
                current = self._nodes[current].successor
                hops += 1
                if hops > self.MAX_ROUTE_HOPS:
                    raise RoutingError(
                        f"no route to key id {key_id} within "
                        f"{self.MAX_ROUTE_HOPS} hops"
                    )
        # All digits injected: i == key_id and current hosts it, except
        # in the zero-digit case where the gateway's successor already
        # owns the key — the loop below is then the delivery correction.
        while not in_half_open_interval(
            key_id, current, self._nodes[current].successor, self.space
        ):
            current = self._nodes[current].successor
            hops += 1
            if hops > self.MAX_ROUTE_HOPS:
                raise RoutingError(
                    f"no route to key id {key_id} within "
                    f"{self.MAX_ROUTE_HOPS} hops"
                )
        return self._nodes[current].successor, hops + 1

    def route(self, key: str) -> tuple[int, int]:
        owner, hops = self.route_id(self._gateway(), hash_key(key, self.id_bits))
        return owner, max(hops, 1)

    def peer_of(self, key: str) -> int:
        return self.peers.successor_of(hash_key(key, self.id_bits))

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def route_hop_bound(self) -> int:
        """A sound worst-case hop bound for :meth:`route`.

        At most ``n_digits`` digit injections, each a de Bruijn jump
        plus at most a full ring of successor corrections, plus the
        final delivery walk and hop: ``(n_digits + 1) * (n + 1) + 1``.
        The expected cost is ``O(log_k n)`` — the property suite pins
        the bound, the benchgate pins the average.
        """
        n = self.n_peers
        return (self.n_digits + 1) * (n + 1) + 1

    def check_pointers(self) -> None:
        """Raise unless every node's ring/de Bruijn pointers are coherent."""
        ids = self.peers.sorted_ids()
        n = len(ids)
        for idx, node_id in enumerate(ids):
            node = self._nodes[node_id]
            if node.successor != ids[(idx + 1) % n]:
                raise RoutingError(f"peer {node_id} has a stale ring successor")
            if node.debruijn != self._build_window(ids, idx):
                raise RoutingError(f"peer {node_id} de Bruijn window incoherent")
