"""Consistent hashing primitives (Karger et al., paper §1).

All substrates identify peers and keys on a ``2**bits`` circular identifier
space using SHA-1, exactly as Chord/Pastry/Bamboo do.  Helper functions
implement modular ring arithmetic.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache
from typing import Sequence

__all__ = [
    "ID_BITS",
    "ID_SPACE",
    "hash_key",
    "ring_distance",
    "successor_in",
    "in_open_interval",
    "in_half_open_interval",
]

#: Identifier width in bits (SHA-1, as in Chord and Bamboo).
ID_BITS = 160

#: Size of the identifier space.
ID_SPACE = 1 << ID_BITS


@lru_cache(maxsize=1 << 17)
def _digest_of(key: str) -> int:
    """Full 160-bit SHA-1 digest of ``key``, memoized.

    Coalesced ``multi_get``/``multi_put`` rounds and the LHT lookup's
    binary search hash the same name-class keys over and over; caching
    the full-width digest lets every truncation width share one SHA-1
    evaluation.  SHA-1 is a pure function of the key, so memoization
    cannot change any result.
    """
    return int.from_bytes(hashlib.sha1(key.encode()).digest(), "big")


def hash_key(key: str, bits: int = ID_BITS) -> int:
    """SHA-1 hash of a string key, truncated to ``bits`` bits."""
    value = _digest_of(key)
    return value >> (160 - bits) if bits < 160 else value


def ring_distance(a: int, b: int, space: int = ID_SPACE) -> int:
    """Clockwise distance from ``a`` to ``b`` on the ring."""
    return (b - a) % space


def successor_in(ordered: Sequence[int], point: int) -> int:
    """The ring successor of ``point`` among the sorted, non-empty
    ``ordered``: the first id ``>= point``, wrapping to the smallest."""
    return ordered[bisect.bisect_left(ordered, point) % len(ordered)]


def in_open_interval(x: int, lo: int, hi: int, space: int = ID_SPACE) -> bool:
    """Whether ``x ∈ (lo, hi)`` on the ring (both endpoints excluded).

    An empty interval (``lo == hi``) wraps the whole ring, matching Chord's
    convention for a ring with a single node.
    """
    return ring_distance(lo, x, space) != 0 and ring_distance(lo, x, space) < (
        ring_distance(lo, hi, space) or space
    )


def in_half_open_interval(x: int, lo: int, hi: int, space: int = ID_SPACE) -> bool:
    """Whether ``x ∈ (lo, hi]`` on the ring."""
    if lo == hi:
        return True
    return 0 < ring_distance(lo, x, space) <= ring_distance(lo, hi, space)
