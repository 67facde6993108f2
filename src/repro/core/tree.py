"""Centralized reference space-partition tree (paper §3.2, Fig. 2).

This is *not* part of the distributed system: it is a single-process oracle
that applies the paper's structural rules directly (median space partition,
split threshold, optional merge rule).  The test suite replays every
workload against both this oracle and the distributed index and asserts
that the distributed leaf buckets match the oracle exactly — which checks
the naming function, the split protocol and the lookup algorithms all at
once.

It also serves as executable documentation of the four structural
properties in §3.2: double-root, fullness, record storage, and the
median space-partition strategy.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.config import IndexConfig
from repro.core.keys import label_for_key
from repro.core.label import Label, ROOT, VIRTUAL_ROOT
from repro.core.naming import naming
from repro.errors import ReproError

__all__ = ["ReferenceTree"]


class ReferenceTree:
    """Oracle implementation of the LHT space-partition tree.

    Maintains the set of leaf labels and the multiset of record keys per
    leaf.  Splits follow the paper: a leaf's interval is always cut at its
    median regardless of the data, and an insertion causes at most one
    split (§5, "to avoid the cascading split").
    """

    def __init__(self, config: IndexConfig | None = None) -> None:
        self.config = config or IndexConfig()
        self._leaves: dict[Label, list[float]] = {ROOT: []}
        self.split_count = 0
        self.merge_count = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def leaf_labels(self) -> list[Label]:
        """All leaf labels in left-to-right (in-order) tree order."""
        return sorted(self._leaves, key=lambda lab: (lab.interval.low, lab.depth))

    @property
    def size(self) -> int:
        """Total number of records stored."""
        return sum(len(keys) for keys in self._leaves.values())

    @property
    def depth(self) -> int:
        """Depth (in bits) of the deepest leaf."""
        return max(label.depth for label in self._leaves)

    def leaf_for(self, key: float) -> Label:
        """The unique leaf whose interval contains ``key``."""
        label = ROOT
        while label not in self._leaves:
            if label.depth > self.config.max_depth + 1:
                raise ReproError(f"inconsistent tree: no leaf on path of {key}")
            label = label_for_key(key, label.depth + 1)
        return label

    def keys_in_leaf(self, label: Label) -> list[float]:
        """Sorted record keys stored in a leaf."""
        return sorted(self._leaves[label])

    def keys_in_range(self, lo: float, hi: float) -> list[float]:
        """All stored keys in ``[lo, hi)`` (brute-force oracle answer)."""
        return sorted(
            k for keys in self._leaves.values() for k in keys if lo <= k < hi
        )

    def all_keys(self) -> list[float]:
        """Every stored key, sorted."""
        return self.keys_in_range(0.0, 1.0)

    def internal_labels(self) -> set[Label]:
        """All internal-node labels, the virtual root included.

        Derived from the leaf set: every proper prefix of a leaf label is an
        internal node.
        """
        internals: set[Label] = {VIRTUAL_ROOT}
        for leaf in self._leaves:
            internals.update(leaf.ancestors())
        return internals

    def __contains__(self, key: float) -> bool:
        return key in self._leaves[self.leaf_for(key)]

    def __iter__(self) -> Iterator[Label]:
        return iter(self.leaf_labels)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, key: float) -> Label:
        """Insert a record key, splitting at most once; returns its leaf."""
        label = self.leaf_for(key)
        # At the depth cap the split is skipped and the leaf grows past
        # the threshold, as the index keeps an over-full leaf there.
        if (
            len(self._leaves[label]) + 1 >= self.config.theta_split
            and label.depth < self.config.max_depth
        ):
            label = self._split(label, key)
        self._leaves[label].append(key)
        return label

    def delete(self, key: float) -> bool:
        """Delete one record with the key; merge siblings if enabled."""
        label = self.leaf_for(key)
        keys = self._leaves[label]
        if key not in keys:
            return False
        keys.remove(key)
        if self.config.merge_enabled:
            self._maybe_merge(label)
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _split(self, label: Label, pending_key: float) -> Label:
        """Split a full leaf at its interval median; return the pending
        key's new leaf."""
        keys = self._leaves.pop(label)
        mid = label.interval.midpoint
        left, right = label.left_child, label.right_child
        self._leaves[left] = [k for k in keys if k < mid]
        self._leaves[right] = [k for k in keys if k >= mid]
        self.split_count += 1
        return left if pending_key < mid else right

    def _maybe_merge(self, label: Label) -> None:
        """Merge a leaf with its sibling when both are leaves and small."""
        while label.depth >= 2:
            sibling = label.sibling
            if sibling not in self._leaves:
                return
            combined = len(self._leaves[label]) + len(self._leaves[sibling])
            # +1: the merged bucket spends one slot on its label.
            if combined + 1 >= self.config.merge_threshold:
                return
            parent = label.parent
            merged = self._leaves.pop(label) + self._leaves.pop(sibling)
            self._leaves[parent] = merged
            self.merge_count += 1
            label = parent

    # ------------------------------------------------------------------
    # Invariants (paper §3.2 structural properties + Theorem 1)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every structural property of the paper; raise on violation.

        Checks:
        1. *Fullness*: every internal node (except the virtual root) has
           exactly two children present in the tree.
        2. *Partition*: leaf intervals tile ``[0, 1)`` exactly.
        3. *Double-root counting*: #leaves == #internal nodes (virtual root
           included).
        4. *Theorem 1*: the naming function is a bijection from leaf labels
           to internal-node labels.
        5. *Record storage*: every key lies in its leaf's interval.
        """
        leaves = set(self._leaves)
        internals = self.internal_labels()

        for node in internals - {VIRTUAL_ROOT}:
            for child in (node.left_child, node.right_child):
                if child not in leaves and child not in internals:
                    raise ReproError(f"fullness violated: {node} misses child {child}")

        ordered = self.leaf_labels
        cursor = ordered[0].interval.low
        if cursor != 0:
            raise ReproError("leftmost leaf does not start at 0")
        for leaf in ordered:
            if leaf.interval.low != cursor:
                raise ReproError(f"gap/overlap before leaf {leaf}")
            cursor = leaf.interval.high
        if cursor != 1:
            raise ReproError("rightmost leaf does not end at 1")

        if len(leaves) != len(internals):
            raise ReproError(
                f"double-root count violated: {len(leaves)} leaves vs "
                f"{len(internals)} internal nodes"
            )

        names = {naming(leaf) for leaf in leaves}
        if names != internals:
            raise ReproError("Theorem 1 violated: f_n(leaves) != internal nodes")

        for leaf, keys in self._leaves.items():
            for key in keys:
                if not leaf.contains(key):
                    raise ReproError(f"key {key} outside its leaf {leaf}")
