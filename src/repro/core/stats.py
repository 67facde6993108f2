"""Index introspection and the one statement of the paper's invariants.

Everything here reads the distributed state through the DHT's oracle
interface (``keys``/``peek`` — no lookup cost, no metric perturbed):

* :func:`stored_buckets` is the one oracle walk (storage label →
  bucket) and :func:`check_structure` the one stateless structural
  check: Theorem 1's placement and name set, record placement, and the
  leaf partition of ``[0, 1)``.  :meth:`IndexInspector.verify` *is*
  that check — tests run it after every mutation sequence.
* :class:`IndexSanitizer` is the opt-in runtime sanitizer
  (``LHT_SANITIZE=1`` or ``IndexConfig(sanitize=True)``, ASan-style):
  :class:`~repro.core.index.LHTIndex` calls its hooks after each
  mutating operation.  It runs the same check on the same walk and adds
  only what needs state or an :class:`IndexConfig` — adaptive sweep
  scheduling, the depth cap, the occupancy growth bound, and the
  Theorem 2 checks on split/merge events.

Failures raise :class:`repro.errors.SanitizerError`; the sanitizer
prefixes the operation context, mirroring how a memory sanitizer
reports the faulting access rather than the later crash.  Experiments
use :class:`IndexInspector` for structural statistics (depth histogram,
storage balance).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.core.bucket import LeafBucket
from repro.core.label import Label
from repro.core.naming import naming
from repro.dht.base import DHT
from repro.errors import LabelError, SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import IndexConfig
    from repro.core.results import MergeEvent, SplitEvent

__all__ = [
    "ENV_VAR",
    "IndexStats",
    "IndexInspector",
    "IndexSanitizer",
    "check_structure",
    "sanitizer_enabled",
    "sanitizer_mode",
    "stored_buckets",
]

#: Environment variable that switches the sanitizer on globally.
ENV_VAR = "LHT_SANITIZE"

_FALSY = frozenset({"", "0", "false", "off", "no"})

#: Leaf count up to which every mutation gets a full sweep; above it,
#: sweeps are amortized to one per ``leaves / _SWEEP_BASE`` mutations so
#: the per-operation overhead stays constant.
_SWEEP_BASE = 32


def stored_buckets(dht: DHT) -> dict[Label, LeafBucket]:
    """The oracle walk: every stored leaf bucket, keyed by its *storage*
    label (the DHT key it sits under)."""
    out: dict[Label, LeafBucket] = {}
    for key in dht.keys():
        value = dht.peek(key)
        if not isinstance(value, LeafBucket):
            continue
        try:
            storage = Label.parse(key)
        except LabelError as exc:
            raise SanitizerError(
                f"bucket {value!r} stored under unparsable DHT key {key!r}"
            ) from exc
        if storage in out:
            raise SanitizerError(f"two buckets stored under DHT key {key!r}")
        out[storage] = value
    return out


def check_structure(buckets: dict[Label, LeafBucket]) -> None:
    """Assert the paper's structural invariants over one oracle walk.

    1. **Placement** — every bucket is stored under ``f_n`` of its label.
    2. **Record placement** — every record key lies in its leaf's
       interval (the interval is convex, so the extremes decide).
    3. **Partition** — the leaf intervals tile ``[0, 1)`` with no gap or
       overlap; a leaf label stored twice is an overlap.
    4. **Theorem 1** — the stored names are exactly the internal nodes
       of the tree the leaves span: ``f_n`` is a bijection between them.
    """
    if not buckets:
        raise SanitizerError("no leaf buckets stored")
    leaves = [bucket.label for bucket in buckets.values()]
    for storage, bucket in buckets.items():
        label = bucket.label
        if naming(label) != storage:
            raise SanitizerError(
                f"Theorem 1 violated: bucket {label} stored under "
                f"{storage}, expected f_n({label}) = {naming(label)}"
            )
        keys = [record.key for record in bucket]
        if keys and not (label.contains(min(keys)) and label.contains(max(keys))):
            raise SanitizerError(
                f"record key outside leaf {label} interval {label.interval}: "
                f"store spans [{min(keys)}, {max(keys)}]"
            )

    cursor: float | Fraction = 0
    for leaf in sorted(leaves, key=lambda lab: lab.interval.low):
        low = leaf.interval.low
        if low != cursor:
            kind = "gap" if low > cursor else "overlap"
            raise SanitizerError(
                f"partition violated: {kind} before leaf {leaf} at {cursor}"
            )
        cursor = leaf.interval.high
    if cursor != 1:
        raise SanitizerError(f"partition violated: coverage stops at {cursor}")

    names = set(buckets)
    internals = {node for leaf in leaves for node in leaf.ancestors()}
    if names != internals:
        extra = sorted(str(name) for name in names - internals)
        missing = sorted(str(name) for name in internals - names)
        raise SanitizerError(
            f"Theorem 1 violated: storage keys != internal nodes "
            f"(unexpected keys: {extra}; unnamed internals: {missing})"
        )


@dataclass(frozen=True, slots=True)
class IndexStats:
    """Structural statistics of a distributed LHT."""

    n_leaves: int
    n_records: int
    min_depth: int
    max_depth: int
    mean_depth: float
    depth_histogram: dict[int, int]


class IndexInspector:
    """Oracle-level reader and verifier of a distributed LHT's state."""

    def __init__(self, dht: DHT) -> None:
        self._dht = dht

    def buckets(self) -> dict[Label, LeafBucket]:
        """All leaf buckets, keyed by their *storage* label (the DHT key)."""
        return stored_buckets(self._dht)

    def stats(self) -> IndexStats:
        """Compute structural statistics."""
        buckets = list(self.buckets().values())
        depths = [b.label.depth for b in buckets]
        histogram: dict[int, int] = {}
        for d in depths:
            histogram[d] = histogram.get(d, 0) + 1
        return IndexStats(
            n_leaves=len(buckets),
            n_records=sum(len(b) for b in buckets),
            min_depth=min(depths),
            max_depth=max(depths),
            mean_depth=sum(depths) / len(depths),
            depth_histogram=dict(sorted(histogram.items())),
        )

    def all_keys(self) -> list[float]:
        """Every stored record key, sorted (oracle answer for tests)."""
        return sorted(
            record.key
            for bucket in self.buckets().values()
            for record in bucket
        )

    def verify(self) -> None:
        """Assert the distributed state satisfies every invariant of
        :func:`check_structure`; raise :class:`SanitizerError` otherwise."""
        check_structure(self.buckets())


def sanitizer_mode() -> str:
    """``"off"``, ``"on"`` (adaptive sweeps), or ``"full"`` (sweep every
    mutation, regardless of tree size — ``LHT_SANITIZE=full``)."""
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value in _FALSY:
        return "off"
    return "full" if value == "full" else "on"


def sanitizer_enabled() -> bool:
    """Whether ``LHT_SANITIZE`` asks for sanitized index operations."""
    return sanitizer_mode() != "off"


class IndexSanitizer:
    """Re-validates the LHT invariants after mutating operations.

    On top of :func:`check_structure` it knows the index's
    :class:`IndexConfig` and the previous sweep, so it also enforces:

    * **Depth cap** — no leaf deeper than ``D``.
    * **Occupancy growth** — over-capacity buckets are legal (a median
      split may shed nothing under skew, and §5 allows one split per
      insertion), but a bucket below the depth cap may only ever exceed
      its previous occupancy by the records that arrived since.
    * **Theorem 2** — per split/merge event, one child keeps the
      parent's DHT key and exactly one sibling moves.

    Cost is one oracle sweep (``O(leaves + records)``) per mutation on
    small trees, amortized to constant overhead on large ones.
    """

    def __init__(self, dht: DHT, config: IndexConfig) -> None:
        self._dht = dht
        self._config = config
        self.checks_run = 0
        self.splits_checked = 0
        self.merges_checked = 0
        # Bucket sizes at the previous sweep, keyed by leaf bit string.
        self._sizes: dict[str, int] = {}
        self._full_sweeps = sanitizer_mode() == "full"
        # Records that may have arrived since the previous sweep: one
        # per mutation, a whole batch per bulk load.
        self._arrivals = 0
        self._sweep_due = False

    def check(self, context: str = "check") -> None:
        """Validate every invariant; raise :class:`SanitizerError` (its
        message prefixed with ``[context]``) if any fails."""
        try:
            buckets = stored_buckets(self._dht)
            check_structure(buckets)
            for bucket in buckets.values():
                self._check_bounds(bucket.label, len(bucket))
        except SanitizerError as exc:
            raise SanitizerError(f"[{context}] {exc}") from exc
        self._sizes = {b.label.bits: len(b) for b in buckets.values()}
        self._arrivals = 0
        self._sweep_due = False
        self.checks_run += 1

    def _check_bounds(self, label: Label, size: int) -> None:
        """Depth cap, and the growth bound for an over-capacity bucket.

        Buckets at the depth cap are exempt from the growth bound —
        splits are refused there, so they grow without limit by design.
        A fresh child is measured against its parent's occupancy.
        """
        config = self._config
        if label.depth > config.max_depth:
            raise SanitizerError(
                f"leaf {label} deeper than max depth {config.max_depth}"
            )
        if size <= config.record_capacity or label.depth == config.max_depth:
            return
        previous = self._sizes.get(
            label.bits, self._sizes.get(label.bits[:-1], config.record_capacity)
        )
        allowance = max(1, self._arrivals)
        if size > max(previous, config.record_capacity) + allowance:
            raise SanitizerError(
                f"bucket {label} holds {size} records — over capacity "
                f"{config.record_capacity} and more than {allowance} above "
                f"the previous occupancy {previous}"
            )

    # ------------------------------------------------------------------
    # Operation hooks (called by LHTIndex when the sanitizer is active)
    # ------------------------------------------------------------------

    def after_mutation(self, context: str, inserted: int = 1) -> None:
        """Validate after one mutating index operation that inserted at
        most ``inserted`` records (a bulk load's whole batch may legally
        land in one bucket).

        Runs a full sweep when one is due under the adaptive schedule:
        always for small trees or after structural changes, one per
        ``leaves / 32`` arrivals for large trees (constant amortized
        overhead), every mutation under ``LHT_SANITIZE=full``.
        """
        self._arrivals += inserted
        leaves = len(self._sizes)
        if (
            self._full_sweeps
            or self._sweep_due
            or leaves <= _SWEEP_BASE
            or self._arrivals * _SWEEP_BASE >= leaves
        ):
            self.check(context)

    def check_split(self, event: SplitEvent) -> None:
        """Theorem 2: the retained child keeps the parent's DHT key and
        exactly one sibling moved to a new peer."""
        parent, local, remote = event.parent, event.local, event.remote
        if {local, remote} != {parent.left_child, parent.right_child}:
            raise SanitizerError(
                f"[split {parent}] children {local}, {remote} are not the "
                f"two children of {parent}"
            )
        if naming(local) != naming(parent) or naming(remote) != parent:
            raise SanitizerError(
                f"[split {parent}] Theorem 2 violated: retained child "
                f"{local} is named {naming(local)} (parent's name is "
                f"{naming(parent)}), moved child {remote} is named "
                f"{naming(remote)} (expected the parent label)"
            )
        for name, leaf in ((naming(parent), local), (parent, remote)):
            stored = self._dht.peek(str(name))
            if not isinstance(stored, LeafBucket) or stored.label != leaf:
                raise SanitizerError(
                    f"[split {parent}] bucket under {name} is {stored!r}, "
                    f"expected leaf {leaf}"
                )
        self._sweep_due = True
        self.splits_checked += 1

    def check_merge(self, event: MergeEvent) -> None:
        """The dual of the split check (name arithmetic only).

        A merge chain may relabel the survivor again before hooks run, so
        live placement is left to the full sweep in :meth:`after_mutation`;
        here we check the Theorem 2 dual on the event itself: the absorbed
        child is the one whose name is the parent label (it held the
        parent-keyed slot the merge retires), so the survivor's own DHT
        key is unchanged.
        """
        survivor, absorbed = event.survivor, event.absorbed
        if absorbed.parent != survivor:
            raise SanitizerError(
                f"[merge {survivor}] absorbed {absorbed} is not a child of "
                f"the survivor"
            )
        if naming(absorbed) != survivor or (
            naming(absorbed.sibling) != naming(survivor)
        ):
            raise SanitizerError(
                f"[merge {survivor}] Theorem 2 dual violated: absorbed child "
                f"{absorbed} is named {naming(absorbed)} (expected the parent "
                f"label), retained child {absorbed.sibling} is named "
                f"{naming(absorbed.sibling)} (parent's name is "
                f"{naming(survivor)})"
            )
        self._sweep_due = True
        self.merges_checked += 1
