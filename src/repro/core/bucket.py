"""Records and leaf buckets (paper §3.1, §3.3, Fig. 3a).

A *record* is the data unit: a distinct numeric data key ``δ ∈ [0, 1)``
plus an opaque payload.  A *leaf bucket* is the unit LHT distributes over
the DHT: the leaf's label (which doubles as the peer's summarized local
view of the whole partition tree) plus the record store.

Capacity accounting follows the paper exactly: a bucket of threshold
``θ_split`` has ``θ_split`` storage slots, one of which is occupied by the
leaf label itself (§9.2, the "extra storage of leaf label").  A bucket is
therefore *full* once it holds ``θ_split - 1`` records, and the measured
split fraction ``α`` counts slots, reproducing the paper's
``ᾱ = 1/2 + 1/(2θ)`` for uniform data.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.interval import Range
from repro.core.label import Label
from repro.errors import KeyOutOfRangeError, WireFormatError

__all__ = [
    "Record",
    "RecordStore",
    "LeafBucket",
    "record_columns",
    "records_from_columns",
]

#: Sort/bisect key for record stores.  Ordering by the raw float key is
#: identical to the dataclass ``order=True`` comparison (which compares
#: ``(key,)`` tuples) but skips the per-comparison tuple construction —
#: the dominant cost of sorted bulk loads at 2^20 keys.
RECORD_KEY = operator.attrgetter("key")


@dataclass(frozen=True, slots=True, order=True)
class Record:
    """A data record: a key in ``[0, 1)`` and an opaque payload.

    Records order by key so bucket stores can stay sorted; the payload is
    excluded from ordering and equality-by-order comparisons.
    """

    key: float
    value: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.key < 1.0:
            raise KeyOutOfRangeError(f"record key {self.key} outside [0, 1)")


def record_columns(records: list[Record]) -> tuple[list[float], list[Any]]:
    """The wire's key column and value column for a record store."""
    return [r.key for r in records], [r.value for r in records]


def records_from_columns(keys: list[float], values: list[Any]) -> list[Record]:
    """Records from the wire's key and value columns, each through
    ``Record.__init__``; unequal columns are rejected, not truncated."""
    if len(keys) != len(values):
        raise WireFormatError(
            f"{len(keys)} keys but {len(values)} values in a record store"
        )
    return list(map(Record, keys, values))


def _bucket_from_wire(bits: str, keys: list[float], values: list[Any]) -> LeafBucket:
    """Decode :meth:`LeafBucket.__reduce__`'s triple via the constructors."""
    return LeafBucket(Label(bits), records_from_columns(keys, values))


class RecordStore:
    """A tree-node label plus a record store sorted by key: what an LHT
    :class:`LeafBucket` and a PHT trie node both are.

    ``label`` is a plain attribute — splits and merges relabel a bucket
    in place (Alg. 1).  Stores are mutable values: equal when their wire
    tuples (label, keys, payloads, and whatever a subclass ships) are,
    and (``__eq__`` without ``__hash__``) unhashable.
    """

    __slots__ = ("label", "_records")

    def __init__(self, label: Label, records: list[Record] | None = None) -> None:
        self.label = label
        self._records: list[Record] = (
            sorted(records, key=RECORD_KEY) if records else []
        )

    @property
    def records(self) -> tuple[Record, ...]:
        """The records, sorted by key (read-only view)."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    @property
    def slot_count(self) -> int:
        """Occupied storage slots: the records plus one slot for the label.

        This is the paper's bucket "size" used in the α measurement
        (§9.2): each newly produced bucket spends one record slot on its
        leaf label.
        """
        return len(self._records) + 1

    def is_full(self, theta_split: int) -> bool:
        """Whether the store has no free slot under threshold ``θ_split``."""
        return self.slot_count >= theta_split

    def add(self, record: Record) -> None:
        """Insert a record, keeping the store sorted by key.

        The record's key must fall in the label's interval; the index layer
        guarantees this by construction, and violating it indicates a
        routing bug, so it raises.
        """
        if not self.label.contains(record.key):
            raise KeyOutOfRangeError(
                f"key {record.key} outside {self.label} interval "
                f"{self.label.interval}"
            )
        bisect.insort(self._records, record, key=RECORD_KEY)

    def remove(self, key: float) -> Record | None:
        """Remove and return one record with the given key, or ``None``."""
        idx = bisect.bisect_left(self._records, key, key=RECORD_KEY)
        if idx < len(self._records) and self._records[idx].key == key:
            return self._records.pop(idx)
        return None

    def find(self, key: float) -> Record | None:
        """Return one record with the given key, or ``None``."""
        idx = bisect.bisect_left(self._records, key, key=RECORD_KEY)
        if idx < len(self._records) and self._records[idx].key == key:
            return self._records[idx]
        return None

    def _run(self, rng: Range) -> slice:
        """Where the records of the half-open query range sit.

        The store is sorted by key, so they are one contiguous run: two
        bisections bound it without any per-record containment test.
        Key-vs-endpoint comparisons are exact whatever the endpoint's
        type, and C-level float comparisons for float endpoints.
        """
        lo = bisect.bisect_left(self._records, rng.lo, key=RECORD_KEY)
        return slice(
            lo, bisect.bisect_left(self._records, rng.hi, lo=lo, key=RECORD_KEY)
        )

    def records_in(self, rng: Range) -> list[Record]:
        """All records whose keys fall in the half-open query range."""
        return self._records[self._run(rng)]

    def __eq__(self, other: object) -> bool:
        # Record.__eq__ ignores payloads, so compare the wire tuples.
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__()[1] == other.__reduce__()[1]


class LeafBucket(RecordStore):
    """A leaf bucket: leaf label + sorted record store (paper Fig. 3a).

    The bucket is the atomic unit mapped onto the DHT.  Its label is the
    peer's entire local view of the partition tree ("local tree
    summarization", §3.3) — no other structural state is kept, which is
    what makes LHT maintenance-free beyond splits and merges.
    """

    __slots__ = ()

    def contains_key(self, key: float) -> bool:
        """Whether the leaf's *interval* covers the key (paper's
        "bucket contains δ" test in Alg. 2 — a geometric test, not a
        membership test)."""
        return self.label.contains(key)

    def min_record(self) -> Record | None:
        """The record with the smallest key, or ``None`` if empty."""
        return self._records[0] if self._records else None

    def max_record(self) -> Record | None:
        """The record with the largest key, or ``None`` if empty."""
        return self._records[-1] if self._records else None

    def take_records_in(self, rng: Range) -> list[Record]:
        """Remove and return all records in the range (used by splits)."""
        run = self._run(rng)
        taken = self._records[run]
        del self._records[run]
        return taken

    def extend(self, records: list[Record]) -> None:
        """Bulk-add records already known to lie in the leaf's interval."""
        for record in records:
            self.add(record)

    def __reduce__(self) -> tuple[Any, tuple[str, list[float], list[Any]]]:
        """The wire form ``(label bits, keys, values)``: one str and two
        columns, so the C pickler never calls back into Python per record
        (docs/performance.md, "Wire format")."""
        return _bucket_from_wire, (self.label.bits, *record_columns(self._records))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LeafBucket({self.label}, n={len(self._records)})"
