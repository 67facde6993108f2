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
from typing import Any, Iterator, TypeVar, cast

from repro.core.interval import Range
from repro.core.label import Label
from repro.errors import KeyOutOfRangeError, WireFormatError

__all__ = ["Record", "RecordStore", "LeafBucket"]

#: Sort key for record lists (bulk loads).  Ordering by the raw float key
#: is identical to the dataclass ``order=True`` comparison (which compares
#: ``(key,)`` tuples) but skips the per-comparison tuple construction —
#: the dominant cost of sorted bulk loads at 2^20 keys.
RECORD_KEY = operator.attrgetter("key")

_Row = TypeVar("_Row")


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


def _bucket_from_wire(bits: str, keys: list[float], values: list[Any]) -> LeafBucket:
    """Decode :meth:`LeafBucket.__reduce__`'s triple: the label through
    its constructor, the two columns adopted after one check."""
    bucket = LeafBucket.__new__(LeafBucket)
    bucket.label = Label(bits)
    bucket._adopt_columns(keys, values)
    return bucket


def _by_key(keys: list[float], rows: list[_Row]) -> tuple[list[float], list[_Row]]:
    """Both columns reordered by key, stably: equal keys keep their order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [keys[i] for i in order], [rows[i] for i in order]


class RecordStore:
    """A tree-node label plus a record store sorted by key: what an LHT
    :class:`LeafBucket` and a PHT trie node both are.

    The store is a sorted key column (``list[float]``, searched by plain
    float bisection) next to exactly one of two row forms:

    * its :class:`Record` list — the form of every store built in
      process (bulk loads, splits, the bare substrates);
    * the wire's value column — the form of a store fresh from
      ``pickle.loads``, where building a ``Record`` per row would cost
      more than the decode itself.

    A read builds only the ``Record`` objects it returns (one for a
    lookup, the run for a range), and an insert or delete edits the
    columns in place, so a fetched bucket goes back on the wire as the
    columns it arrived as.  Whole-store views (:attr:`records`,
    iteration, hence merges and scans) build every ``Record`` once and
    switch the store to the ``Record`` form.  In-process stores stay
    ``Record`` lists because a range result is the stored records
    themselves: slicing them is free, building them is not.

    ``label`` is a plain attribute — splits and merges relabel a bucket
    in place (Alg. 1).  Stores are mutable values: equal when their wire
    tuples (label, keys, payloads, and whatever a subclass ships) are,
    and (``__eq__`` without ``__hash__``) unhashable.
    """

    __slots__ = ("label", "_keys", "_records", "_values")

    def __init__(self, label: Label, records: list[Record] | None = None) -> None:
        self.label = label
        rows = list(records) if records else []
        keys = [record.key for record in rows]
        ordered = sorted(keys)
        if ordered != keys:
            ordered, rows = _by_key(keys, rows)
        self._keys: list[float] = ordered
        self._records: list[Record] | None = rows
        self._values: list[Any] | None = None

    def _adopt_columns(self, keys: list[float], values: list[Any]) -> None:
        """Take the wire's columns as the store, after one check.

        Columns must be lists of equal length; every key must lie in
        ``[0, 1)`` (NaN anywhere poisons the sum, and without NaN the
        sorted extremes bound the rest); out-of-order columns are
        stably re-sorted, as the ``Record`` constructor path did.
        """
        if type(keys) is not list or type(values) is not list:
            raise WireFormatError(
                f"record store columns must be lists, got "
                f"{type(keys).__name__} and {type(values).__name__}"
            )
        if len(keys) != len(values):
            raise WireFormatError(
                f"{len(keys)} keys but {len(values)} values in a record store"
            )
        if keys:
            ordered = sorted(keys)
            total = sum(keys)
            if total != total or not (0.0 <= ordered[0] and ordered[-1] < 1.0):
                bad = next(k for k in keys if not 0.0 <= k < 1.0)
                raise KeyOutOfRangeError(f"record key {bad} outside [0, 1)")
            if ordered != keys:
                keys, values = _by_key(keys, values)
        self._keys, self._records, self._values = keys, None, values

    def _record_at(self, index: int) -> Record:
        """The record at one position; built on the spot in the wire form."""
        records = self._records
        if records is not None:
            return records[index]
        return Record(self._keys[index], cast("list[Any]", self._values)[index])

    def _rows(self) -> list[Record]:
        """The ``Record`` form, built once from the columns it replaces."""
        records = self._records
        if records is None:
            values = cast("list[Any]", self._values)
            records = self._records = list(map(Record, self._keys, values))
            self._values = None
        return records

    def record_keys(self) -> list[float]:
        """The stored keys, in order: read off the records when the store
        holds them (a record planted past the key column still shows),
        off the key column otherwise — no ``Record`` is built."""
        records = self._records
        if records is None:
            return self._keys
        return [record.key for record in records]

    def _value_column(self) -> list[Any]:
        """The wire's value column: held as is, or read off the records."""
        records = self._records
        if records is None:
            return cast("list[Any]", self._values)
        return [record.value for record in records]

    @property
    def records(self) -> tuple[Record, ...]:
        """The records, sorted by key (read-only view)."""
        return tuple(self._rows())

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._rows())

    @property
    def slot_count(self) -> int:
        """Occupied storage slots: the records plus one slot for the label.

        This is the paper's bucket "size" used in the α measurement
        (§9.2): each newly produced bucket spends one record slot on its
        leaf label.
        """
        return len(self._keys) + 1

    def is_full(self, theta_split: int) -> bool:
        """Whether the store has no free slot under threshold ``θ_split``."""
        return self.slot_count >= theta_split

    def add(self, record: Record) -> None:
        """Insert a record, keeping the store sorted by key (after any
        equal keys, as ``bisect.insort`` places it).

        The record's key must fall in the label's interval; the index layer
        guarantees this by construction, and violating it indicates a
        routing bug, so it raises.
        """
        if not self.label.contains(record.key):
            raise KeyOutOfRangeError(
                f"key {record.key} outside {self.label} interval "
                f"{self.label.interval}"
            )
        idx = bisect.bisect_right(self._keys, record.key)
        self._keys.insert(idx, record.key)
        records = self._records
        if records is not None:
            records.insert(idx, record)
        else:
            cast("list[Any]", self._values).insert(idx, record.value)

    def remove(self, key: float) -> Record | None:
        """Remove and return one record with the given key, or ``None``."""
        keys = self._keys
        idx = bisect.bisect_left(keys, key)
        if idx == len(keys) or keys[idx] != key:
            return None
        stored = keys.pop(idx)
        records = self._records
        if records is not None:
            return records.pop(idx)
        return Record(stored, cast("list[Any]", self._values).pop(idx))

    def find(self, key: float) -> Record | None:
        """Return one record with the given key, or ``None``."""
        keys = self._keys
        idx = bisect.bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            return self._record_at(idx)
        return None

    def _run(self, rng: Range) -> slice:
        """Where the records of the half-open query range sit.

        The store is sorted by key, so they are one contiguous run: two
        bisections of the key column bound it without any per-record
        containment test.  Key-vs-endpoint comparisons are exact whatever
        the endpoint's type, and C-level float comparisons for float
        endpoints.
        """
        keys = self._keys
        lo = bisect.bisect_left(keys, rng.lo)
        return slice(lo, bisect.bisect_left(keys, rng.hi, lo))

    def _slice(self, run: slice) -> list[Record]:
        """The records of one run, building only those in the wire form."""
        records = self._records
        if records is not None:
            return records[run]
        values = cast("list[Any]", self._values)
        return list(map(Record, self._keys[run], values[run]))

    def _take(self, run: slice) -> list[Record]:
        """Remove and return the records of one run."""
        taken = self._slice(run)
        del self._keys[run]
        if self._records is not None:
            del self._records[run]
        else:
            del cast("list[Any]", self._values)[run]
        return taken

    def records_in(self, rng: Range) -> list[Record]:
        """All records whose keys fall in the half-open query range."""
        return self._slice(self._run(rng))

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
        return self._record_at(0) if self._keys else None

    def max_record(self) -> Record | None:
        """The record with the largest key, or ``None`` if empty."""
        return self._record_at(-1) if self._keys else None

    def copy(self) -> LeafBucket:
        """An equal bucket whose columns are its own: editing one leaves
        the other as it was.  Records are frozen and payloads opaque, so
        they are shared; the row form (records or wire columns) is kept."""
        twin = LeafBucket.__new__(LeafBucket)
        twin.label = self.label
        twin._keys = self._keys.copy()
        records, values = self._records, self._values
        twin._records = None if records is None else records.copy()
        twin._values = None if values is None else values.copy()
        return twin

    def take_records_in(self, rng: Range) -> list[Record]:
        """Remove and return all records in the range (used by splits)."""
        return self._take(self._run(rng))

    def extend(self, records: list[Record]) -> None:
        """Bulk-add records already known to lie in the leaf's interval."""
        for record in records:
            self.add(record)

    def __reduce__(self) -> tuple[Any, tuple[str, list[float], list[Any]]]:
        """The wire form ``(label bits, keys, values)``: one str and two
        columns, so the C pickler never calls back into Python per record
        (docs/performance.md, "Wire format")."""
        return _bucket_from_wire, (self.label.bits, self._keys, self._value_column())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LeafBucket({self.label}, n={len(self)})"
