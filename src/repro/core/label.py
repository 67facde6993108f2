"""Tree-node labels for the LHT space-partition tree (paper §3.2).

The space-partition tree is a binary tree with a *virtual root* labelled
``#`` above the regular root.  Every edge carries a bit — ``0`` towards a
left child, ``1`` towards a right child — and, as a special case, the edge
from the virtual root to the regular root carries ``0``.  A node's label is
``#`` followed by the bits on the path from the virtual root down to it, so
the regular root is ``#0`` and e.g. ``#0110`` is the right-left... path shown
in Fig. 2 of the paper.

A :class:`Label` is an immutable value object.  The paper's *length* of a
label (used by the lookup binary search, Alg. 2) counts the ``#`` character
plus the bits; it is exposed as :attr:`Label.length`.

Notation mapping to the paper:

==============================  =======================================
Paper                           This module
==============================  =======================================
``#`` (virtual root)            ``VIRTUAL_ROOT`` / ``Label("")``
``#0`` (regular root)           ``ROOT``
label ``λ`` / ``ω``             ``Label``
``λ``'s length                  ``Label.length``
interval covered by a node      ``Label.interval``
==============================  =======================================
"""

from __future__ import annotations

from typing import Iterator

from repro.core.interval import UNIT_INTERVAL, DyadicInterval
from repro.errors import LabelError

__all__ = ["Label", "VIRTUAL_ROOT", "ROOT"]

_VALID_BITS = frozenset("01")


class Label:
    """An immutable space-partition-tree node label.

    Args:
        bits: The bit string on the path from the virtual root, *excluding*
            the leading ``#`` character.  The empty string denotes the
            virtual root itself; any non-empty bit string must start with
            ``0`` (the virtual-root-to-root edge).

    Labels compare equal by bit string, hash accordingly, and order
    lexicographically by bit string (which, for labels of equal depth, is
    also the left-to-right order of the nodes in the tree).
    """

    __slots__ = ("_bits", "_interval")

    def __init__(self, bits: str) -> None:
        # str.strip("01") is empty iff every character is a valid bit —
        # one C-level scan instead of a set() build per constructed
        # label (lookups construct one label per probed length).
        if bits and (bits[0] != "0" or bits.strip("01")):
            raise LabelError(f"invalid label bits: {bits!r}")
        self._bits = bits
        self._interval: DyadicInterval | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Label":
        """Parse the paper's textual form, e.g. ``"#0110"`` or ``"#"``."""
        if not text.startswith("#"):
            raise LabelError(f"label text must start with '#': {text!r}")
        return cls(text[1:])

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def bits(self) -> str:
        """The bit string after the ``#`` (empty for the virtual root)."""
        return self._bits

    @property
    def is_virtual_root(self) -> bool:
        """Whether this is the virtual root ``#``."""
        return not self._bits

    @property
    def is_root(self) -> bool:
        """Whether this is the regular root ``#0``."""
        return self._bits == "0"

    @property
    def depth(self) -> int:
        """Number of bits, i.e. tree depth below the virtual root.

        The virtual root has depth 0 and the regular root depth 1.
        """
        return len(self._bits)

    @property
    def length(self) -> int:
        """The paper's label *length*: the ``#`` plus the bits.

        This is the quantity the lookup binary search (Alg. 2) iterates
        over; ``length == depth + 1``.
        """
        return len(self._bits) + 1

    @property
    def last_bit(self) -> str:
        """The final bit of the label.

        Raises:
            LabelError: for the virtual root, which has no bits.
        """
        if not self._bits:
            raise LabelError("virtual root has no last bit")
        return self._bits[-1]

    # ------------------------------------------------------------------
    # Tree navigation
    # ------------------------------------------------------------------

    def child(self, bit: str) -> "Label":
        """The child label obtained by appending one bit.

        The virtual root's only child is the regular root; asking for its
        right child (bit ``"1"``) raises.
        """
        if bit not in _VALID_BITS:
            raise LabelError(f"invalid bit: {bit!r}")
        if self.is_virtual_root and bit != "0":
            raise LabelError("the virtual root has no right child")
        return Label(self._bits + bit)

    @property
    def left_child(self) -> "Label":
        """The left child (``bit 0``)."""
        return self.child("0")

    @property
    def right_child(self) -> "Label":
        """The right child (``bit 1``)."""
        return self.child("1")

    @property
    def parent(self) -> "Label":
        """The parent label (the virtual root has none)."""
        if not self._bits:
            raise LabelError("virtual root has no parent")
        return Label(self._bits[:-1])

    @property
    def sibling(self) -> "Label":
        """The sibling label (same parent, flipped last bit).

        The regular root ``#0`` has no sibling because the virtual root has
        a single child.
        """
        if len(self._bits) < 2:
            raise LabelError(f"label {self} has no sibling")
        flipped = "1" if self._bits[-1] == "0" else "0"
        return Label(self._bits[:-1] + flipped)

    def is_prefix_of(self, other: "Label") -> bool:
        """Whether this label is an ancestor-or-self of ``other``."""
        return other._bits.startswith(self._bits)

    def is_proper_prefix_of(self, other: "Label") -> bool:
        """Whether this label is a strict ancestor of ``other``."""
        return len(self._bits) < len(other._bits) and other._bits.startswith(self._bits)

    def prefix(self, length: int) -> "Label":
        """The prefix of the given paper-style *length* (``#`` counted).

        ``label.prefix(label.length)`` is the label itself and
        ``label.prefix(1)`` is the virtual root.
        """
        if not 1 <= length <= self.length:
            raise LabelError(f"prefix length {length} out of range for {self}")
        return Label(self._bits[: length - 1])

    def ancestors(self) -> Iterator["Label"]:
        """Yield all proper ancestors, nearest (parent) first."""
        for end in range(len(self._bits) - 1, -1, -1):
            yield Label(self._bits[:end])

    def extend(self, bits: str) -> "Label":
        """Append several bits at once."""
        if bits.strip("01"):
            raise LabelError(f"invalid bits: {bits!r}")
        if self.is_virtual_root and bits and bits[0] != "0":
            raise LabelError("the virtual root has no right child")
        return Label(self._bits + bits)

    # ------------------------------------------------------------------
    # Spine predicates (used by the neighbor functions, Def. 3)
    # ------------------------------------------------------------------

    @property
    def on_leftmost_spine(self) -> bool:
        """Whether the label has the form ``#00*`` (or is ``#``).

        These nodes touch the left edge of the data space; they have no left
        neighbor.
        """
        return all(b == "0" for b in self._bits)

    @property
    def on_rightmost_spine(self) -> bool:
        """Whether the label has the form ``#01*`` (or is ``#``).

        These nodes touch the right edge of the data space; they have no
        right neighbor.
        """
        return all(b == "1" for b in self._bits[1:])

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def interval(self) -> DyadicInterval:
        """The dyadic interval this node covers.

        The virtual root and the regular root both cover ``[0, 1)``; below
        the root each bit halves the interval (``0`` keeps the left half).

        Cached in a slot (not ``cached_property``, which would force a
        per-instance ``__dict__`` back onto this hot value object).
        """
        cached = self._interval
        if cached is None:
            space_bits = self._bits[1:]  # leading 0 is the virtual-root edge
            if not space_bits:
                cached = UNIT_INTERVAL
            else:
                cached = DyadicInterval(int(space_bits, 2), len(space_bits))
            self._interval = cached
        return cached

    def contains(self, key: float) -> bool:
        """Whether the data key lies in this node's interval."""
        return self.interval.contains(key)

    # ------------------------------------------------------------------
    # Value-object protocol
    # ------------------------------------------------------------------

    def __reduce__(self) -> tuple[type["Label"], tuple[str]]:
        """Bits alone: the cached interval is rebuilt on demand, never shipped."""
        return Label, (self._bits,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Label) and self._bits == other._bits

    def __lt__(self, other: "Label") -> bool:
        return self._bits < other._bits

    def __le__(self, other: "Label") -> bool:
        return self._bits <= other._bits

    def __hash__(self) -> int:
        return hash(("Label", self._bits))

    def __str__(self) -> str:
        return "#" + self._bits

    def __repr__(self) -> str:
        return f"Label({str(self)!r})"


#: The virtual root ``#`` (paper §3.2, the "double-root" property).
VIRTUAL_ROOT = Label("")

#: The regular root ``#0``, covering the whole data space.
ROOT = Label("0")
