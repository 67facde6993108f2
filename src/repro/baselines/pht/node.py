"""PHT trie nodes (Ramabhadran et al., PODC 2004; Chawathe et al.,
SIGCOMM 2005).

Unlike LHT, PHT materializes *every* trie node — internal nodes included —
in the DHT, each stored directly under the hash of its own label.  Leaves
additionally keep B+-tree-style ``prev``/``next`` links to their in-order
neighbors, which the sequential range-query algorithm walks and every
split must repair (the maintenance cost LHT eliminates).
"""

from __future__ import annotations

from typing import Any

from repro.core.bucket import (
    Record,
    RecordStore,
    record_columns,
    records_from_columns,
)
from repro.core.label import Label

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


class PHTNode(RecordStore):
    """One PHT trie node: label, leaf flag, records, and leaf links.

    The record store (leaves only) is the one LHT buckets use — same
    sorted list, same bisections, same ``θ_split`` slot accounting.
    """

    __slots__ = ("is_leaf", "prev_label", "next_label")

    def __init__(
        self,
        label: Label,
        is_leaf: bool = True,
        records: list[Record] | None = None,
        prev_label: Label | None = None,
        next_label: Label | None = None,
    ) -> None:
        super().__init__(label, records)
        self.is_leaf = is_leaf
        self.prev_label = prev_label
        self.next_label = next_label

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

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "leaf" if self.is_leaf else "internal"
        return f"PHTNode({self.label}, {kind}, n={len(self._records)})"
