"""Ordered traversal (extension).

It rides on the same machinery as range queries: from any leaf, the
neighbor functions locate the adjacent leaf with one DHT-lookup (plus the
usual one-lookup repair when the branch node happens to be a leaf), so
:func:`scan_buckets` / :func:`scan_records` stream the whole index in
key order starting from the leftmost leaf (stored under ``#``).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.bucket import LeafBucket, Record
from repro.core.config import IndexConfig
from repro.core.label import Label, VIRTUAL_ROOT
from repro.core.lookup import ReadPath
from repro.core.naming import left_neighbor, naming, right_neighbor
from repro.dht.base import DHT
from repro.errors import LookupError_

__all__ = ["fetch_adjacent", "scan_buckets", "scan_records"]


def fetch_adjacent(
    get: Callable[[str], LeafBucket | None], label: Label, rightwards: bool
) -> tuple[LeafBucket | None, int]:
    """The leaf adjacent to ``label``; returns (bucket, gets used).

    ``label`` must not touch the data-space edge in that direction;
    ``None`` when the walk is cut off: ``get`` answered neither probe,
    or the repair landed on a leaf that does not abut ``label``.
    """
    # The near-edge leaf of the neighboring tree is stored under β; if β
    # is itself a leaf, repair via f_n(β) (same pattern as Alg. 3).
    beta = right_neighbor(label) if rightwards else left_neighbor(label)
    bucket = get(str(beta))
    if bucket is not None:
        return bucket, 1
    bucket = get(str(naming(beta)))
    # The repair is right only when β really is a leaf.  A miss of β that
    # was a lost reply, not an answered "not stored", sends it to some
    # other leaf: only geometry can tell, so a non-adjacent leaf is no
    # answer.
    if bucket is not None:
        here, there = label.interval, bucket.label.interval
        abuts = there.low == here.high if rightwards else there.high == here.low
        if not abuts:
            return None, 2
    return bucket, 2


def _adjacent_or_raise(
    reads: ReadPath, label: Label, rightwards: bool
) -> tuple[LeafBucket, int]:
    bucket, lookups = fetch_adjacent(reads.fetch, label, rightwards)
    if bucket is None:
        raise LookupError_(f"cannot reach the tree neighboring {label}")
    return bucket, lookups


def scan_buckets(dht: DHT, config: IndexConfig) -> Iterator[LeafBucket]:
    """Yield every leaf bucket in left-to-right key order.

    Costs one DHT-lookup per leaf (the per-step repair adds at most one),
    beginning with the leftmost leaf under ``#``.
    """
    reads = ReadPath(dht, config)
    bucket = reads.fetch(str(VIRTUAL_ROOT))
    if bucket is None:
        raise LookupError_("no leaf stored under '#': index not bootstrapped")
    while True:
        yield bucket
        if bucket.label.on_rightmost_spine:
            return
        bucket, _ = _adjacent_or_raise(reads, bucket.label, rightwards=True)


def scan_records(dht: DHT, config: IndexConfig) -> Iterator[Record]:
    """Yield every record in ascending key order."""
    for bucket in scan_buckets(dht, config):
        yield from bucket
