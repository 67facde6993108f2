"""Min/max queries (paper §7, Theorem 3).

The naming function places the leftmost leaf (label ``#00*``) under DHT
key ``#`` and the rightmost leaf (``#01*``) under ``#0``, so the global
minimum and maximum keys are each one DHT-lookup away — regardless of the
tree's size or shape.

Two practical extensions beyond the paper's statement:

* a single-leaf tree has its only leaf ``#0`` stored under ``#``, so a max
  query's lookup of ``#0`` fails and is repaired with one lookup of ``#``
  (whose bucket must then be ``#0`` itself — anything else means the
  get of ``#0`` lost its reply);
* when deletions leave the extreme bucket empty, the query walks inward
  across neighboring trees (one lookup each) until it finds a record.

**Typed answers.**  Gets go through :class:`~repro.core.lookup.ReadPath`
(errors are misses, misses are re-asked of replicas), yet a lossy
substrate can still drop the bootstrap get or cut off the inward walk.
Instead of raising, the query then returns ``complete=False`` with an
``unreachable`` interval bounding where the true extremum could hide —
everything from the blocked point outward to the extreme edge the walk
started from.
"""

from __future__ import annotations

from repro.core.bucket import LeafBucket
from repro.core.interval import Range
from repro.core.label import ROOT, VIRTUAL_ROOT
from repro.core.lookup import ReadPath
from repro.core.results import MinMaxResult
from repro.core.scan import fetch_adjacent
from repro.errors import LookupError_

__all__ = ["min_query", "max_query"]


def min_query(reads: ReadPath) -> MinMaxResult:
    """Return the record with the smallest key (1 DHT-lookup, Theorem 3)."""
    bucket = reads.get(str(VIRTUAL_ROOT))
    if bucket is None:  # not bootstrapped, or '#' is unreachable
        return _blocked(reads, Range(0.0, 1.0), 1)
    return _scan(reads, bucket, 1, want_min=True)


def max_query(reads: ReadPath) -> MinMaxResult:
    """Return the record with the largest key (1 DHT-lookup, Theorem 3)."""
    bucket = reads.get(str(ROOT))
    lookups = 1
    if bucket is None:
        # Single-leaf tree: the only leaf #0 lives under f_n(#0) = '#'.
        # Any other leaf there means '#0' exists and its reply was lost.
        bucket = reads.get(str(VIRTUAL_ROOT))
        lookups += 1
        if bucket is None or bucket.label != ROOT:
            return _blocked(reads, Range(0.0, 1.0), lookups)
    return _scan(reads, bucket, lookups, want_min=False)


def _blocked(reads: ReadPath, unreachable: Range, lookups: int) -> MinMaxResult:
    """Build the 'walk cut off' result and count it in metrics."""
    reads.dht.metrics.record_degraded()
    return MinMaxResult(
        None, lookups, complete=False, unreachable=(unreachable,)
    )


def _scan(
    reads: ReadPath, bucket: LeafBucket, lookups: int, want_min: bool
) -> MinMaxResult:
    """Walk inward from an extreme bucket until a record is found."""
    for _ in range(2 ** reads.config.max_depth):  # hard bound: one step per leaf
        record = bucket.min_record() if want_min else bucket.max_record()
        if record is not None:
            return MinMaxResult(record, lookups)
        label = bucket.label
        at_edge = (
            label.on_rightmost_spine if want_min else label.on_leftmost_spine
        )
        if at_edge:
            return MinMaxResult(None, lookups)  # the index is entirely empty
        nxt, used = fetch_adjacent(reads.get, label, rightwards=want_min)
        lookups += used
        if nxt is None:
            # The walk is cut off past this leaf: the true extremum lies
            # somewhere from its inner edge out to the far edge of the
            # key space (everything before it was scanned empty).
            inv = label.interval
            gap = Range(inv.high, 1.0) if want_min else Range(0.0, inv.low)
            return _blocked(reads, gap, lookups)
        bucket = nxt
    raise LookupError_("min/max scan did not terminate")
