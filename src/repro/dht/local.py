"""Fast hash-partitioned DHT backend with a synthetic hop model.

Functionally a consistent-hash ring collapsed into one process: keys map
to the successor peer of their SHA-1 identifier, exactly like Chord's
placement rule, but routing is not simulated — each operation charges a
deterministic ``⌈log2 N⌉`` hops, the textbook Chord bound.

This is the default backend for the paper-scale experiments (up to 2^20
records): the index-level metrics (DHT-lookup counts, moved records,
parallel steps) are *identical* to those over the routed substrates —
paper footnote 5 makes the same observation — while running orders of
magnitude faster.
"""

from __future__ import annotations

import math

from repro.dht.hashing import ID_SPACE, hash_key
from repro.dht.kernel import SubstrateBase
from repro.dht.metrics import MetricsRecorder

__all__ = ["LocalDHT"]


class LocalDHT(SubstrateBase):
    """In-process DHT with consistent-hash placement over virtual peers.

    Args:
        n_peers: Number of virtual peers on the ring.
        seed: Seed for drawing peer identifiers.
        metrics: Optional shared recorder.
    """

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        super().__init__(n_peers, seed, metrics)
        ids: set[int] = set()
        while len(ids) < n_peers:
            # Compose a full 160-bit identifier from three 64-bit draws.
            pid = 0
            for _ in range(3):
                pid = (pid << 64) | int(self._rng.integers(0, 1 << 63))
            ids.add(pid % ID_SPACE)
        for pid in sorted(ids):
            self.peers.add_peer(pid)
        self._hop_cost = max(1, math.ceil(math.log2(n_peers)))

    # ------------------------------------------------------------------
    # Placement (the substrate essence: a static ring, no real routing)
    # ------------------------------------------------------------------

    def route(self, key: str) -> tuple[int, int]:
        """Synthetic routing: the responsible peer at ``⌈log2 N⌉`` hops."""
        return self.peer_of(key), self._hop_cost

    def peer_of(self, key: str) -> int:
        """Successor peer of ``hash(key)`` on the ring."""
        return self.peers.successor_of(hash_key(key))
