"""Sorted bulk-build planning: the client-side fast path (§5, Theorem 2).

Incremental ``bulk_load`` pushes records one at a time through the split
path, so building an index re-moves about half a bucket on every split
— exactly the maintenance cost the paper prices in Theorem 2.  For an
*initial load* none of that traffic is necessary: the client can sort
the input once, replay the split schedule entirely in memory, and ship
each final bucket with a single routed put.

One subtlety keeps this honest.  The final partition is *almost* a
function of the key set alone, but not quite: a node created by a split
inherits ``c₀`` records, and it splits on the first arrival once it
holds ``max(c₀ + 1, θ) `` slots — so in the corner where all ``θ`` slots
of a parent land in one child (``c₀ = θ``) and no later key ever arrives
there, insertion *order* decides whether that child has split yet.  The
fast path therefore canonicalizes: it sorts the input and replays the
incremental algorithm's exact placement rules in sorted order.  The
contract, enforced by ``tests/test_bulkbuild.py``, is

    ``fast(items)  ≡  incremental(sorted(items))``   (byte-identical state)

and query answers are identical to *any* insertion order, because every
order yields a valid partition holding the same record multiset.

The planner is shared by :class:`repro.core.index.LHTIndex` and the PHT
baseline: both schemes split a full leaf at the midpoint of its dyadic
interval and never cascade (at most one split per insertion, children
may be left overfull), so the replay recurrence is identical — only the
commit step (which DHT keys receive the final buckets) differs.

Deterministic-core rules apply (``repro.devtools.lint`` LHT001/LHT002):
this module touches no wall clock and no randomness.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.bucket import RECORD_KEY, LeafBucket, Record
from repro.core.config import IndexConfig
from repro.core.interval import DyadicInterval
from repro.core.keys import key_bits
from repro.core.label import Label
from repro.core.naming import naming
from repro.errors import LookupError_

__all__ = ["BulkPlan", "leaf_put_items", "normalize_items", "plan_bulk_load"]


def normalize_items(
    items: Iterable[float | tuple[float, Any]],
) -> list[Record]:
    """Materialize bulk-load input as records sorted ascending by key.

    The sort is stable, so records with equal keys keep their input
    order — the same relative order ``bisect.insort`` preserves when the
    incremental path appends an equal key after its duplicates.
    """
    records = [
        Record(*item) if isinstance(item, tuple) else Record(item)
        for item in items
    ]
    # Record orders by key alone (payload excluded); sorting on the raw
    # float key is the same stable order without a ``(key,)`` tuple
    # built per comparison — the hottest line of a 2^20-key build.
    records.sort(key=RECORD_KEY)
    return records


@dataclass(slots=True)
class BulkPlan:
    """The final partition a sorted replay produces.

    Attributes:
        leaves: Final leaf partition — bits string to its sorted records.
        changed: Leaves that differ from the pre-load state (new labels,
            or pre-existing leaves that absorbed records); each needs
            exactly one put.  Untouched pre-existing leaves are absent.
        split_bits: Leaves consumed by replay splits, in split order —
            the nodes that just became internal.
        inserted: Number of records placed.
    """

    leaves: dict[str, list[Record]]
    changed: set[str]
    split_bits: tuple[str, ...]
    inserted: int


def plan_bulk_load(
    existing: Mapping[str, list[Record]],
    records: list[Record],
    config: IndexConfig,
) -> BulkPlan:
    """Replay sorted insertion client-side and return the final partition.

    Args:
        existing: Current leaf partition (bits -> record list).  The
            lists are consumed as working state — pass copies, never the
            live bucket stores.
        records: New records, pre-sorted by :func:`normalize_items`.
        config: Supplies ``θ_split`` and the depth cap ``D``.

    The placement rules mirror ``LHTIndex._place`` exactly: a record
    walks to its covering leaf; if the leaf is full (``records + 1 ≥ θ``)
    and above the depth cap it splits once at its interval midpoint, the
    record then lands in the covering child; children are never re-split
    for the same record.
    """
    theta = config.theta_split
    max_depth = config.max_depth
    leaves: dict[str, list[Record]] = {
        bits: list(recs) for bits, recs in existing.items()
    }
    changed: set[str] = set()
    split_bits: list[str] = []
    # Sorted keys revisit the same leaf ~θ/2 times in a row, so the
    # covering-leaf walk (a per-record bit-string build pre-PR) only
    # needs to run when a record exits the current leaf's interval.
    # The interval is tracked as the integer pair (cur_num, cur_level):
    # ``cur_num <= key * 2**cur_level < cur_num + 1`` is the exact
    # containment test (scaling a float by a power of two only shifts
    # its exponent), identical to ``path.startswith(bits)``.
    current: str | None = None
    cur_num = cur_level = 0

    for record in records:
        key = record.key
        if current is None or not cur_num <= key * (1 << cur_level) < cur_num + 1:
            path = "0" + key_bits(key, max_depth - 1)
            current = next(
                (
                    path[:end]
                    for end in range(1, len(path) + 1)
                    if path[:end] in leaves
                ),
                None,
            )
            if current is None:
                raise LookupError_(f"no known leaf covers {key}")
            cur_level = len(current) - 1
            cur_num = int(current, 2)
            changed.add(current)
        bits = current
        store = leaves[bits]
        if len(store) + 1 >= theta and len(bits) < max_depth:
            # Midpoint split (Alg. 1): the right child's lower endpoint
            # is the cut; the store is sorted, so one bisection splits it
            # (float-to-float wherever a float equals the exact midpoint).
            child_level = cur_level + 1
            child_num = 2 * cur_num + 1
            boundary = DyadicInterval(cur_num, cur_level).midpoint
            cut = bisect.bisect_left(store, boundary, key=RECORD_KEY)
            del leaves[bits]
            left, right = bits + "0", bits + "1"
            leaves[left] = store[:cut]
            leaves[right] = store[cut:]
            changed.discard(bits)
            changed.update((left, right))
            split_bits.append(bits)
            if key >= boundary:
                bits, cur_num = right, child_num
            else:
                bits, cur_num = left, 2 * cur_num
            cur_level = child_level
            current = bits
            store = leaves[bits]
        # Ascending replay appends in the common case; pre-existing
        # records with larger keys force a true insertion.
        if not store or store[-1].key <= key:
            store.append(record)
        else:
            bisect.insort(store, record, key=RECORD_KEY)

    return BulkPlan(
        leaves=leaves,
        changed=changed,
        split_bits=tuple(split_bits),
        inserted=len(records),
    )


def leaf_put_items(plan: BulkPlan) -> list[tuple[str, LeafBucket]]:
    """The routed write batch that commits a plan: one ``(DHT key,
    bucket)`` item per changed final leaf, in sorted-bits order.

    The batch feeds :meth:`~repro.dht.base.DHT.multi_put` — one parallel
    round, one charged put per leaf.  Every retired leaf name ``f_n(ω)``
    re-names a leaf created by the replay (Theorem 1's chains are
    suffix-closed), so these puts overwrite all stale keys: no removes
    are needed.
    """
    return [
        (str(naming(Label(bits))), LeafBucket(Label(bits), plan.leaves[bits]))
        for bits in sorted(plan.changed)
    ]
