"""PHT trie nodes (Ramabhadran et al., PODC 2004; Chawathe et al.,
SIGCOMM 2005).

Unlike LHT, PHT materializes *every* trie node — internal nodes included —
in the DHT, each stored directly under the hash of its own label.  Leaves
additionally keep B+-tree-style ``prev``/``next`` links to their in-order
neighbors, which the sequential range-query algorithm walks and every
split must repair (the maintenance cost LHT eliminates).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.core.bucket import Record, record_columns, records_from_columns
from repro.core.interval import Range
from repro.core.label import Label
from repro.errors import KeyOutOfRangeError

__all__ = ["PHTNode"]


def _bits(label: Label | None) -> str | None:
    return None if label is None else label.bits


def _label(bits: str | None) -> Label | None:
    return None if bits is None else Label(bits)


def _node_from_wire(
    bits: str,
    is_leaf: bool,
    keys: list[float],
    values: list[Any],
    prev_bits: str | None,
    next_bits: str | None,
) -> PHTNode:
    """Decode :meth:`PHTNode.__reduce__`'s tuple via the constructors."""
    return PHTNode(
        Label(bits),
        is_leaf,
        records_from_columns(keys, values),
        _label(prev_bits),
        _label(next_bits),
    )


class PHTNode:
    """One PHT trie node: label, leaf flag, records, and leaf links."""

    __slots__ = ("label", "is_leaf", "_records", "prev_label", "next_label")

    def __init__(
        self,
        label: Label,
        is_leaf: bool = True,
        records: list[Record] | None = None,
        prev_label: Label | None = None,
        next_label: Label | None = None,
    ) -> None:
        self.label = label
        self.is_leaf = is_leaf
        self._records: list[Record] = sorted(records) if records else []
        self.prev_label = prev_label
        self.next_label = next_label

    # ------------------------------------------------------------------
    # Record store (leaves only)
    # ------------------------------------------------------------------

    @property
    def records(self) -> tuple[Record, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    @property
    def slot_count(self) -> int:
        """Records plus one label slot — the same capacity accounting as
        LHT buckets, for a like-for-like θ_split."""
        return len(self._records) + 1

    def is_full(self, theta_split: int) -> bool:
        return self.slot_count >= theta_split

    def add(self, record: Record) -> None:
        if not self.label.contains(record.key):
            raise KeyOutOfRangeError(
                f"key {record.key} outside node {self.label}"
            )
        bisect.insort(self._records, record)

    def remove(self, key: float) -> Record | None:
        idx = bisect.bisect_left(self._records, Record(key))
        if idx < len(self._records) and self._records[idx].key == key:
            return self._records.pop(idx)
        return None

    def find(self, key: float) -> Record | None:
        idx = bisect.bisect_left(self._records, Record(key))
        if idx < len(self._records) and self._records[idx].key == key:
            return self._records[idx]
        return None

    def records_in(self, rng: Range) -> list[Record]:
        return [r for r in self._records if rng.contains(r.key)]

    def take_all(self) -> list[Record]:
        """Remove and return every record (used when a leaf splits)."""
        records, self._records = self._records, []
        return records

    def __reduce__(self) -> tuple[Any, tuple[Any, ...]]:
        """``LeafBucket``'s columnar wire form plus leaf flag and link bits."""
        return _node_from_wire, (
            self.label.bits,
            self.is_leaf,
            *record_columns(self._records),
            _bits(self.prev_label),
            _bits(self.next_label),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PHTNode):
            return NotImplemented
        return self.__reduce__()[1] == other.__reduce__()[1]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "leaf" if self.is_leaf else "internal"
        return f"PHTNode({self.label}, {kind}, n={len(self._records)})"
