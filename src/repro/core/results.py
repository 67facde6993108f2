"""Result and event types returned by LHT (and PHT) operations.

Every operation reports the paper's cost measures alongside its payload:

* ``dht_lookups`` — routed DHT operations consumed (bandwidth unit, §8.1);
* ``parallel_steps`` — longest chain of *sequential* DHT-lookups (the
  latency unit of §9.4: "paralleled steps of DHT lookups");
* ``records_moved`` — records shipped between peers by maintenance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.bucket import LeafBucket, Record
from repro.core.interval import Range
from repro.core.label import Label

__all__ = [
    "LookupResult",
    "MatchStatus",
    "ExactMatchResult",
    "InsertResult",
    "DeleteResult",
    "RangeQueryResult",
    "MinMaxResult",
    "SplitEvent",
    "MergeEvent",
]


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of an LHT-lookup (Alg. 2).

    Attributes:
        bucket: The leaf bucket covering the looked-up key (``None`` only
            on an inconsistent index).
        name: The DHT key the bucket is stored under, i.e. ``f_n(λ)`` —
            what Alg. 2 returns.
        dht_lookups: Number of DHT-gets the binary search consumed.
        probed: The DHT keys probed, in order (diagnostic).
    """

    bucket: LeafBucket | None
    name: Label | None
    dht_lookups: int
    probed: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        """Whether the lookup converged on a bucket."""
        return self.bucket is not None

    @property
    def unreachable(self) -> bool:
        """Whether the lookup failed to converge.

        On a quiescent, fault-free index this is impossible (Alg. 2
        always terminates at the covering leaf), so non-convergence is
        *evidence of unreachability* — dropped gets bent the search, or
        the index is transiently inconsistent under churn.  It is never
        evidence of absence: a key's presence is only decidable from a
        converged bucket.
        """
        return self.bucket is None


class MatchStatus(enum.Enum):
    """Trichotomy of an exact-match outcome under possible faults.

    The distinction matters because Alg. 2 reads failed DHT-gets
    structurally: a lossy substrate can make a *present* key look absent
    unless non-convergence is reported separately from a genuine miss.
    """

    #: The lookup converged and the record was in its bucket.
    PRESENT = "present"
    #: The lookup converged on the covering leaf and the record is not
    #: there — *proven* absent (the covering bucket is the only place the
    #: key could legally be, by the partition invariant).
    ABSENT = "absent"
    #: The lookup did not converge; presence is undecidable.
    UNREACHABLE = "unreachable"


@dataclass(frozen=True, slots=True)
class ExactMatchResult:
    """Outcome of a fault-aware exact-match query.

    Unlike :meth:`~repro.core.index.LHTIndex.exact_match`, which raises
    on non-convergence, this result reports unreachability as data so
    callers can distinguish "not stored" from "could not tell".
    """

    status: MatchStatus
    record: Record | None
    dht_lookups: int

    @property
    def found(self) -> bool:
        """Whether a record was returned (``status`` is PRESENT)."""
        return self.status is MatchStatus.PRESENT

    @property
    def decided(self) -> bool:
        """Whether presence was decided either way (not UNREACHABLE)."""
        return self.status is not MatchStatus.UNREACHABLE


@dataclass(frozen=True, slots=True)
class SplitEvent:
    """One leaf split (Alg. 1).

    ``alpha`` is the paper's split fraction: the remote bucket's *slot*
    count (records + 1 label slot) divided by ``θ_split``, measured on the
    split partition before the pending insert is placed (§9.2).
    """

    parent: Label
    local: Label
    remote: Label
    alpha: float
    records_moved: int
    dht_lookups: int


@dataclass(frozen=True, slots=True)
class MergeEvent:
    """One leaf merge (the dual of a split, §3.2 merge rule)."""

    survivor: Label
    absorbed: Label
    records_moved: int
    dht_lookups: int


@dataclass(frozen=True, slots=True)
class InsertResult:
    """Outcome of one insertion (§5, "Data Insertion")."""

    leaf: Label
    dht_lookups: int
    split: SplitEvent | None = None


@dataclass(frozen=True, slots=True)
class DeleteResult:
    """Outcome of one deletion."""

    deleted: bool
    dht_lookups: int
    merges: tuple[MergeEvent, ...] = ()


@dataclass(frozen=True, slots=True)
class RangeQueryResult:
    """Outcome of a range query (Algs. 3-4).

    Attributes:
        records: All matching records, sorted by key.
        dht_lookups: Total DHT operations (the §9.4 bandwidth measure).
        failed_lookups: How many of those were failed gets (the paper
            proves at most 1 per recursive sweep + 1 in general forwarding).
        parallel_steps: Length of the longest sequential DHT-lookup chain
            (the §9.4 latency measure).
        buckets_visited: Distinct leaf buckets that contributed records.
        complete: Whether every overlapping leaf was reached.  When
            ``False``, the unreachable subtrees are reported below
            (``LHTIndex.range_query`` raises instead unless asked for
            ``degraded=True``); ``True`` promises the full answer.
        unreachable: Leaf intervals (as ranges, clipped to the query)
            whose records could not be fetched.  Empty iff ``complete``.
    """

    records: tuple[Record, ...]
    dht_lookups: int
    failed_lookups: int
    parallel_steps: int
    buckets_visited: int
    #: Diagnostic: number of collection attempts.  For LHT this equals
    #: ``buckets_visited`` exactly when the range decomposition is
    #: disjoint (each leaf handed exactly one subrange) — a stronger
    #: property than deduplicated results, asserted by the test suite.
    collect_calls: int = 0
    complete: bool = True
    unreachable: tuple[Range, ...] = ()
    #: Number of batched ``multi_get`` rounds the executor issued — every
    #: get due at the same sequential step ships in one round, so this is
    #: the count of *round trips* a parallel client would pay.  At most
    #: ``parallel_steps`` + the degenerate case's sequential stretch; 0
    #: for an empty range.
    batch_rounds: int = 0

    @property
    def keys(self) -> list[float]:
        """Just the matching keys, sorted."""
        return [r.key for r in self.records]


@dataclass(frozen=True, slots=True)
class MinMaxResult:
    """Outcome of a min or max query (Theorem 3).

    ``complete=False`` (raised by ``LHTIndex`` unless ``degraded=True``)
    means the inward walk from the extreme leaf was cut off by
    unreachable buckets: ``record`` may be ``None`` even though the index
    holds records, and ``unreachable`` bounds where the extremum could hide.
    """

    record: Record | None
    dht_lookups: int
    complete: bool = True
    unreachable: tuple[Range, ...] = ()


@dataclass(slots=True)
class CostLedger:
    """Mutable running totals of *maintenance* cost for an index.

    The paper's Fig. 7 counts only structure-adjustment traffic (splits
    and merges), not the insertion lookups themselves; this ledger keeps
    those separate from the substrate-level
    :class:`~repro.dht.metrics.MetricsRecorder` totals.
    """

    maintenance_lookups: int = 0
    maintenance_records_moved: int = 0
    splits: list[SplitEvent] = field(default_factory=list)
    merges: list[MergeEvent] = field(default_factory=list)

    @property
    def split_count(self) -> int:
        return len(self.splits)

    @property
    def average_alpha(self) -> float:
        """Mean split fraction ᾱ over all splits so far (§9.2)."""
        if not self.splits:
            return float("nan")
        return sum(e.alpha for e in self.splits) / len(self.splits)

    def record_split(self, event: SplitEvent) -> None:
        self.splits.append(event)
        self.maintenance_lookups += event.dht_lookups
        self.maintenance_records_moved += event.records_moved

    def record_merge(self, event: MergeEvent) -> None:
        self.merges.append(event)
        self.maintenance_lookups += event.dht_lookups
        self.maintenance_records_moved += event.records_moved
