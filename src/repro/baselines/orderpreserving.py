"""Order-preserving placement baseline (paper §2's LSH trade-off).

The alternative design family the paper surveys replaces the uniform
hash with a locality-sensitive one, placing records *directly by key* on
the ring.  Range queries become trivial — walk the contiguous arc of
peers covering ``[l, u)`` — but storage load now mirrors the data
distribution: "DHTs with LSH have to sacrifice their load balance" (§2).

This baseline makes that sacrifice measurable.  Peers own equal arcs of
``[0, 1)`` and each record lives on the peer owning its key; the E15
extension compares its per-peer Gini against LHT's under skewed data.
"""

from __future__ import annotations

import bisect
import math
from typing import Any

from repro.core.bucket import Record
from repro.core.interval import Range
from repro.errors import ConfigurationError

__all__ = ["OrderPreservingIndex"]


class OrderPreservingIndex:
    """Records placed at position ``δ`` on a ring of equal-arc peers.

    Not a :class:`~repro.dht.base.DHT` client — it *is* the substrate
    (the defining property of the locality-sensitive family: the overlay
    itself must change, which is why the paper's over-DHT schemes cannot
    be deployed this way and vice versa).
    """

    def __init__(self, n_peers: int = 64, seed: int = 0) -> None:
        if n_peers < 1:
            raise ConfigurationError(f"n_peers must be >= 1: {n_peers}")
        del seed  # arcs are deterministic; kept for factory symmetry
        self.n_peers = n_peers
        self._stores: list[list[Record]] = [[] for _ in range(n_peers)]

    def _peer_for(self, key: float) -> int:
        return min(int(key * self.n_peers), self.n_peers - 1)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def insert(self, key: float, value: Any = None) -> int:
        """One routed put to the arc owner; returns DHT-lookups (1)."""
        record = Record(key, value)
        store = self._stores[self._peer_for(key)]
        bisect.insort(store, record)
        return 1

    def exact_match(self, key: float) -> tuple[Record | None, int]:
        """One routed get; returns (record or None, DHT-lookups)."""
        store = self._stores[self._peer_for(key)]
        idx = bisect.bisect_left(store, Record(key))
        if idx < len(store) and store[idx].key == key:
            return store[idx], 1
        return None, 1

    def range_query(self, lo: float, hi: float) -> tuple[list[Record], int]:
        """Walk the contiguous arc of peers covering ``[lo, hi)``.

        Returns (records, DHT-lookups).  Cost is exactly the number of
        arc owners touched — the efficiency the locality-sensitive
        family buys with its load-balance sacrifice.
        """
        rng = Range(lo, hi)
        if rng.is_empty:
            return [], 0
        first = self._peer_for(lo)
        last = self._peer_for(math.nextafter(hi, 0.0)) if hi > 0 else first
        out: list[Record] = []
        lookups = 0
        for peer in range(first, last + 1):
            lookups += 1
            out.extend(r for r in self._stores[peer] if rng.contains(r.key))
        return out, lookups

    # ------------------------------------------------------------------
    # Load-balance introspection
    # ------------------------------------------------------------------

    def peer_loads(self) -> dict[int, int]:
        """Records per peer — tracks the data distribution by design."""
        return {peer: len(store) for peer, store in enumerate(self._stores)}

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

