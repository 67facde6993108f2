"""A bounded LRU cache of leaf labels, keyed by key interval.

The cache is the client-side state that turns LHT's ``log(D/2)``-get
exact match (Alg. 2) into a 1-get operation on repeated keys.  It stores
*leaf labels only* — never buckets — because a label is self-validating:
the reader re-fetches the bucket stored under ``f_n(label)`` and checks,
via the label algebra, that its interval still covers the queried key.
A stale entry therefore degrades to a recoverable detour (one wasted
get, then the normal binary search), never to a wrong answer; this is
the property that makes client caching safe over a mutable index.

Staleness sources and their outcomes:

* **split** — by Theorem 2 the child keeping the parent's DHT name stays
  under ``f_n(parent)``, so a pre-split entry still *hits* for keys that
  land in that child (the entry is refreshed to the child's label in
  passing) and goes stale only for keys in the moved sibling;
* **merge** — the absorbed child's DHT key is removed, so its entry
  probes to a failed get and is invalidated;
* **dropped replies** — a lost reply the read path could not rescue
  from a replica reads as a miss, so it is handled like a merge
  (never cached, never trusted).

The owning index additionally calls :meth:`on_split` / :meth:`on_merge`
for the mutations it performs itself, keeping a single-writer cache
exact; the validation probe is what protects multi-client deployments.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from repro.core.keys import key_bits
from repro.core.label import Label
from repro.core.results import MergeEvent, SplitEvent
from repro.errors import ConfigurationError

__all__ = ["LeafCache"]


class LeafCache:
    """Bounded LRU map from key intervals to leaf labels.

    Entries are leaf-label bit strings; a lookup for a data key scans the
    prefixes of its path ``μ(δ, D)`` (shortest first), so "the cached
    interval covering δ" costs at most ``D`` dict probes and no routed
    traffic.  In a consistent snapshot the leaf labels form an antichain,
    so at most one prefix can match; after unobserved remote mutations a
    stale ancestor may shadow a fresher descendant, which the validation
    probe at the index layer resolves.
    """

    __slots__ = ("_capacity", "_entries")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1: {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[str, None] = OrderedDict()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of retained labels."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label: Label) -> bool:
        return label.bits in self._entries

    def labels(self) -> Iterator[Label]:
        """All cached labels, least recently used first (diagnostic)."""
        return (Label(bits) for bits in self._entries)

    def lookup(self, key: float, max_depth: int) -> Label | None:
        """The cached leaf label whose interval covers ``key``, if any.

        Marks the entry most-recently-used.  The returned label is a
        *candidate*: the caller must validate it with a DHT-get of
        ``f_n(label)`` before trusting it.
        """
        path = "0" + key_bits(key, max_depth - 1)
        for end in range(1, len(path) + 1):
            bits = path[:end]
            if bits in self._entries:
                self._entries.move_to_end(bits)
                return Label(bits)
        return None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def store(self, label: Label) -> None:
        """Remember a leaf label observed by a converged lookup."""
        bits = label.bits
        if bits in self._entries:
            self._entries.move_to_end(bits)
            return
        self._entries[bits] = None
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def invalidate(self, label: Label) -> bool:
        """Drop one entry (stale probe, observed removal); returns
        whether it was present."""
        return self._pop(label)

    def _pop(self, label: Label) -> bool:
        if label.bits in self._entries:
            del self._entries[label.bits]
            return True
        return False

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Mutation hooks (single-writer exactness)
    # ------------------------------------------------------------------

    def on_split(self, event: SplitEvent) -> None:
        """A leaf this client knew as ``event.parent`` split in two.

        The parent label no longer names a leaf; both children do, and
        the splitting client touched both, so they enter hot.
        """
        self._pop(event.parent)
        self.store(event.local)
        self.store(event.remote)

    def on_merge(self, event: MergeEvent) -> None:
        """Two sibling leaves merged into ``event.survivor``."""
        self._pop(event.survivor.left_child)
        self._pop(event.survivor.right_child)
        self.store(event.survivor)
