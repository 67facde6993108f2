"""Raw-DHT strawman: no index at all (the paper's §1 motivation).

Records are placed by hashing their key directly (``κ = δ``, the "raw
DHT" of §3.1).  Exact-match is a single DHT-get, but all data locality is
destroyed: a range query can only be answered by sweeping every peer (a
broadcast), which is what makes over-DHT indexes necessary.  Used by the
examples to demonstrate the problem LHT solves.
"""

from __future__ import annotations

from typing import Any

from repro.core.bucket import Record
from repro.core.interval import Range
from repro.dht.base import DHT

__all__ = ["NaiveIndex"]


class NaiveIndex:
    """Direct key hashing with no locality preservation."""

    def __init__(self, dht: DHT) -> None:
        self.dht = dht

    @staticmethod
    def _key(key: float) -> str:
        return f"raw:{key!r}"

    def insert(self, key: float, value: Any = None) -> int:
        """One DHT-put; returns the DHT-lookups used (always 1)."""
        self.dht.put(self._key(key), Record(key, value))
        return 1

    def exact_match(self, key: float) -> tuple[Record | None, int]:
        """One DHT-get; returns (record or None, DHT-lookups)."""
        value = self.dht.get(self._key(key))
        return (value if isinstance(value, Record) else None), 1

    def range_query(self, lo: float, hi: float) -> tuple[list[Record], int]:
        """Broadcast sweep: every peer must be contacted.

        Returns (matching records, DHT-lookups charged).  The cost is one
        lookup per *peer* — with uniform hashing no peer can be ruled
        out — which is the scalability wall the paper's indexes remove.
        """
        rng = Range(lo, hi)
        matches = [
            value
            for key in self.dht.keys()
            if isinstance(value := self.dht.peek(key), Record)
            and rng.contains(value.key)
        ]
        matches.sort()
        return matches, self.dht.n_peers
