"""The LHT index: the paper's contribution, assembled (§3-§7).

:class:`LHTIndex` is a client of any generic DHT (:class:`repro.dht.base.DHT`).
It stores leaf buckets under the DHT keys produced by the naming function
``f_n`` and implements:

* ``insert`` / ``delete`` — LHT-lookup + a DHT-put towards the bucket name
  (§5), with leaf splitting (Alg. 1) and its dual merging (§3.2);
* ``lookup`` / ``exact_match`` — Alg. 2;
* ``range_query`` — Algs. 3-4 (§6);
* ``min_query`` / ``max_query`` — Theorem 3 (§7);
* ``bulk_load`` — a loader that finds each record's leaf by running
  Alg. 2 over the free oracle read ``peek``, so index *construction*
  skips per-record routed lookups.  Maintenance costs (split puts, moved
  records) are charged identically to ``insert``; only the insertion's
  own lookup traffic is elided.  The maintenance experiments (Figs. 6-7)
  measure exactly the maintenance ledger, so bulk loading reproduces the
  paper's numbers at a fraction of the wall-clock.

The index keeps no copy of the tree: by local tree summarization (§4)
the stored leaf buckets *are* the tree, so the record and leaf counts
and the fast bulk load read them through the oracle walk
(:func:`repro.core.stats.stored_buckets`).

Cost accounting: substrate-level totals live in ``index.dht.metrics``;
maintenance-only totals (the paper's Fig. 7 measure) live in
``index.ledger``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, TypeVar

from repro.cache import LeafCache, cached_plan
from repro.core.bucket import LeafBucket, Record
from repro.core.bulkbuild import leaf_put_items, normalize_items, plan_bulk_load
from repro.core.config import IndexConfig
from repro.core.interval import Range
from repro.core.label import Label, ROOT
from repro.core.lookup import Plan, ReadPath, drive_plan, lookup_plan
from repro.core.minmax import max_query, min_query
from repro.core.naming import naming
from repro.core.range_query import RangeQueryExecutor
from repro.core.results import (
    CostLedger,
    DeleteResult,
    ExactMatchResult,
    InsertResult,
    LookupResult,
    MatchStatus,
    MergeEvent,
    MinMaxResult,
    RangeQueryResult,
    SplitEvent,
)
from repro.core.scan import scan_records
from repro.core.stats import IndexSanitizer, sanitizer_enabled, stored_buckets
from repro.dht.base import DHT
from repro.errors import DHTError, LookupError_

__all__ = ["LHTIndex"]

_Typed = TypeVar("_Typed", RangeQueryResult, MinMaxResult)


def _complete_or_raise(result: _Typed, incomplete_ok: bool) -> _Typed:
    """The raising view of a typed answer (``degraded=False``)."""
    if result.complete or incomplete_ok:
        return result
    gaps = ", ".join(str(gap) for gap in result.unreachable)
    raise LookupError_(f"incomplete answer: unreachable {gaps}")


class LHTIndex:
    """A Low-maintenance Hash Tree over a generic DHT.

    Args:
        dht: Any substrate implementing the put/get interface.
        config: Split threshold ``θ_split`` and maximum depth ``D``.

    Example::

        from repro import LHTIndex, LocalDHT

        index = LHTIndex(LocalDHT(n_peers=64))
        index.insert(0.42, "answer")
        index.range_query(0.4, 0.5).records
    """

    def __init__(self, dht: DHT, config: IndexConfig | None = None) -> None:
        self.dht = dht
        self.config = config or IndexConfig()
        self.ledger = CostLedger()
        #: The one routed read path (:class:`~repro.core.lookup.ReadPath`):
        #: lost replies are rescued from replicas, and the serving layer
        #: issues its batched rounds through it.
        self.reads = ReadPath(dht, self.config)
        self._range_executor = RangeQueryExecutor(dht, self.config, self.reads)
        # Optional leaf-label cache fronting every lookup (and therefore
        # exact_match/insert/delete, which all start with one).  Sits
        # *above* whatever substrate stack `dht` is — including a
        # ResilientDHT — so breaker-open errors reach it typed and never
        # mutate it (see repro.cache.lookup).
        self.cache: LeafCache | None = (
            LeafCache(self.config.cache_capacity)
            if self.config.cache_capacity is not None
            else None
        )
        # Bootstrap: the root leaf lives under f_n(#0) = '#'.
        self.dht.put(str(naming(ROOT)), LeafBucket(ROOT))
        # Opt-in runtime sanitizer (LHT_SANITIZE=1): re-validates
        # Theorems 1-2 and the §3.2 structural properties after every
        # mutating operation.
        self.sanitizer: IndexSanitizer | None = (
            IndexSanitizer(dht, self.config) if sanitizer_enabled() else None
        )

    # ------------------------------------------------------------------
    # Lookup and exact match (§5)
    # ------------------------------------------------------------------

    def lookup_plan(self, key: float) -> Plan:
        """The probe plan for ``key`` (Alg. 2): :meth:`lookup` drives
        one, the serving layer many in lock-step.

        With a ``cache_capacity``, a cached covering label short-circuits
        the binary search to one validated DHT-get (see
        :func:`repro.cache.cached_plan`); results are identical either
        way, only the cost differs.
        """
        if self.cache is not None:
            return cached_plan(self.config, self.cache, self.dht.metrics, key)
        return lookup_plan(self.config, key)

    def lookup(self, key: float) -> LookupResult:
        """Locate the leaf bucket covering ``key`` (Alg. 2); a typed
        substrate error propagates."""
        return drive_plan(self.reads.fetch, self.lookup_plan(key))

    def exact_match(self, key: float) -> tuple[Record | None, int]:
        """Return (record with exactly this key or None, DHT-lookups used)."""
        result = self.lookup(key)
        if result.bucket is None:
            raise LookupError_(f"lookup of {key} failed to converge")
        return result.bucket.find(key), result.dht_lookups

    def exact_match_checked(self, key: float) -> ExactMatchResult:
        """Fault-aware exact match: PRESENT / proven-ABSENT / UNREACHABLE.

        Unlike :meth:`exact_match`, non-convergence (dropped gets bending
        Alg. 2's search, routing errors, an open circuit breaker) is
        reported as :attr:`~repro.core.results.MatchStatus.UNREACHABLE`
        rather than raised or conflated with absence.  ABSENT is only
        claimed from a converged covering bucket — the one place the key
        could legally live, by the partition invariant.
        """
        try:
            routed: LookupResult | None = self.lookup(key)
        except DHTError:
            routed = None
        return self.finish_lookup(key, routed)

    def finish_lookup(
        self, key: float, routed: LookupResult | None
    ) -> ExactMatchResult:
        """The typed finish of one driven :meth:`lookup_plan`: its
        result, or ``None`` when a typed substrate error cut the drive
        short.  A non-convergent run is re-driven once over replica
        probes before the key is declared UNREACHABLE."""
        if routed is None or routed.bucket is None:
            routed = self.reads.redrive(key, routed)
            if routed.bucket is None:
                self.dht.metrics.record_degraded()
                return ExactMatchResult(
                    MatchStatus.UNREACHABLE, None, routed.dht_lookups
                )
        record = routed.bucket.find(key)
        status = MatchStatus.PRESENT if record is not None else MatchStatus.ABSENT
        return ExactMatchResult(status, record, routed.dht_lookups)

    def _locate(self, key: float) -> tuple[LeafBucket, Label, int]:
        """Covering bucket, its DHT name, lookups spent — or raise."""
        result = self.lookup(key)
        if result.bucket is None or result.name is None:
            raise LookupError_(f"lookup of {key} failed to converge")
        return result.bucket, result.name, result.dht_lookups

    def __contains__(self, key: float) -> bool:
        record, _ = self.exact_match(key)
        return record is not None

    # ------------------------------------------------------------------
    # Insertion (§5) and deletion
    # ------------------------------------------------------------------

    def insert(self, key: float, value: Any = None) -> InsertResult:
        """Insert a record: LHT-lookup of ``δ``, then a DHT-put towards
        the bucket name ``κ`` (§5); at most one split per insertion.

        Without a split that one put is the whole write: it carries the
        bucket with the record in it.  The bucket is edited as a copy —
        on a by-reference substrate the fetched bucket *is* the stored
        one, and a put that fails must leave the index as it was.
        """
        bucket, name, lookups = self._locate(key)
        record = Record(key, value)
        if self._splits(bucket):
            # The record travels to the bucket's peer: one routed
            # DHT-put; the split's own writes follow (Alg. 1).
            self.dht.put(str(name), bucket)
            leaf, split = self._place(bucket, record)
        else:
            updated = bucket.copy()
            updated.add(record)
            self.dht.put(str(name), updated)
            leaf, split = updated.label, None
            self._after_insert(None)
        return InsertResult(leaf=leaf, dht_lookups=lookups + 1, split=split)

    def delete(self, key: float) -> DeleteResult:
        """Delete the record with exactly this key, if present: the
        routed delete message carries the bucket without the record
        (a copy, as in :meth:`insert`)."""
        bucket, name, lookups = self._locate(key)
        updated = bucket.copy()
        removed = updated.remove(key)
        self.dht.put(str(name), updated)
        lookups += 1
        if removed is None:
            return DeleteResult(deleted=False, dht_lookups=lookups)
        merges: tuple[MergeEvent, ...] = ()
        if self.config.merge_enabled:
            merges = tuple(self._maybe_merge(updated))
        if self.sanitizer is not None:
            for merge in merges:
                self.sanitizer.check_merge(merge)
            self.sanitizer.after_mutation("delete")
        return DeleteResult(deleted=True, dht_lookups=lookups, merges=merges)

    def bulk_load(
        self,
        items: Iterable[float | tuple[float, Any]],
        fast: bool = False,
    ) -> int:
        """Insert many records without routed lookups.

        Accepts bare keys or ``(key, value)`` pairs; returns the number
        inserted.  Each record's leaf is found by Alg. 2 run over the
        free oracle read ``peek`` — no get, no cache counter — and then
        placed exactly as :meth:`insert` places it, so splits are charged
        in full.  See the module docs for the cost-accounting contract.

        With ``fast=True`` the input is sorted once and the final leaf
        partition is computed client-side (:mod:`repro.core.bulkbuild`):
        each new or modified final leaf ships with exactly one routed
        put, no intermediate splits or record moves ever touch the
        overlay, and the resulting DHT state is byte-identical to
        incrementally loading the *sorted* input.  The maintenance
        ledger and move counters stay at zero by design — use the
        default incremental path where Theorem-2 costs are the thing
        being measured (Figs. 6-7, Eq. 3).
        """
        if fast:
            return self._bulk_load_fast(items)
        count = 0
        for item in items:
            key, value = item if isinstance(item, tuple) else (item, None)
            found = drive_plan(self.dht.peek, lookup_plan(self.config, key))
            if found.bucket is None:
                raise LookupError_(f"no stored leaf covers {key}")
            self._place(found.bucket, Record(key, value))
            count += 1
        return count

    def _bulk_load_fast(
        self, items: Iterable[float | tuple[float, Any]]
    ) -> int:
        """Sorted client-side bulk build: one put per changed final leaf."""
        records = normalize_items(items)
        if not records:
            return 0
        existing = {
            bucket.label.bits: list(bucket.records) for bucket in self._leaves()
        }
        plan = plan_bulk_load(existing, records, self.config)
        # One batched routed round commits the whole plan: each changed
        # final leaf is charged one put (identical counts to sequential
        # puts), and the batch crosses the overlay as a single parallel
        # step (see DHT.multi_put).
        self.dht.multi_put(leaf_put_items(plan))
        if self.cache is not None:
            # Cached labels self-validate, so stale entries would only
            # cost detours — but a bulk rebuild invalidates en masse.
            self.cache.clear()
        if self.sanitizer is not None:
            # One mutation, many arrivals: the whole batch may legally
            # land in one bucket.
            self.sanitizer.after_mutation("bulk_load", plan.inserted)
        return plan.inserted

    # ------------------------------------------------------------------
    # Queries (§6, §7)
    # ------------------------------------------------------------------

    def range_query(
        self, lo: float, hi: float, degraded: bool = False
    ) -> RangeQueryResult:
        """All records with keys in ``[lo, hi)`` (Algs. 3-4).

        Unreachable subtrees yield an incomplete result
        (``complete=False`` + their intervals) — never silently partial
        data.  ``degraded=True`` returns it; the default is a view that
        raises :class:`~repro.errors.LookupError_` naming them instead.
        """
        return _complete_or_raise(self._range_executor.run(Range(lo, hi)), degraded)

    def min_query(self, degraded: bool = False) -> MinMaxResult:
        """The record with the smallest key (Theorem 3); ``degraded``
        as for :meth:`range_query`."""
        return _complete_or_raise(min_query(self.reads), degraded)

    def max_query(self, degraded: bool = False) -> MinMaxResult:
        """The record with the largest key (Theorem 3); ``degraded``
        as for :meth:`range_query`."""
        return _complete_or_raise(max_query(self.reads), degraded)

    def scan(self) -> Iterator[Record]:
        """Iterate every record in ascending key order (one DHT-lookup
        per leaf; see :mod:`repro.core.scan`)."""
        return scan_records(self.dht, self.config)

    # ------------------------------------------------------------------
    # Maintenance: split (Alg. 1) and merge (its dual)
    # ------------------------------------------------------------------

    def _place(
        self, bucket: LeafBucket, record: Record
    ) -> tuple[Label, SplitEvent | None]:
        """Place a record that has arrived at its bucket, splitting once
        if the bucket is full (§5: at most one split per insertion).

        Persistence follows Alg. 1: the remote child travels with one
        routed DHT-put (the pending record rides along when it belongs
        there); the local bucket is written back to the holding peer's
        disk (`local_write`, no overlay traffic).
        """
        event = None
        if self._splits(bucket):
            event, remote_bucket = self._split(bucket)
            target = (
                remote_bucket
                if remote_bucket.label.contains(record.key)
                else bucket
            )
            target.add(record)
            # Alg. 1 line 11: one routed put ships the remote bucket.
            self.dht.put(str(event.parent), remote_bucket)
            # Alg. 1 line 10: the local child is a local disk write.
            self.dht.local_write(str(naming(bucket.label)), bucket)
        else:
            target = bucket
            target.add(record)
            self.dht.local_write(str(naming(bucket.label)), bucket)
        self._after_insert(event)
        return target.label, event

    def _splits(self, bucket: LeafBucket) -> bool:
        """Whether a record arriving at ``bucket`` splits it: the bucket
        is full and below the depth cap, where an over-full leaf stays."""
        return bucket.is_full(self.config.theta_split) and (
            bucket.label.depth < self.config.max_depth
        )

    def _after_insert(self, event: SplitEvent | None) -> None:
        """The sanitizer's hooks after one placed record, if it is on."""
        if self.sanitizer is not None:
            if event is not None:
                self.sanitizer.check_split(event)
            self.sanitizer.after_mutation("insert")

    def _split(self, bucket: LeafBucket) -> tuple[SplitEvent, LeafBucket]:
        """Split a full leaf (Alg. 1) — pure state change.

        By Theorem 2 one child keeps the parent's DHT name — it stays on
        the same peer, relabelled in place — and only the other child
        moves.  The caller performs the routed put of the remote bucket
        (so the pending record can ride along) and the local write-back.
        """
        parent = bucket.label
        if parent.last_bit == "1":
            remote_label, local_label = parent.left_child, parent.right_child
        else:
            remote_label, local_label = parent.right_child, parent.left_child

        moved = bucket.take_records_in(remote_label.interval.to_range())
        # α is measured on the split partition, before the pending insert
        # is placed (§9.2): remote records + the remote bucket's label slot.
        alpha = (len(moved) + 1) / self.config.theta_split
        bucket.label = local_label
        remote_bucket = LeafBucket(remote_label, moved)
        self.dht.metrics.record_moved_records(len(moved))

        event = SplitEvent(
            parent=parent,
            local=local_label,
            remote=remote_label,
            alpha=alpha,
            records_moved=len(moved),
            dht_lookups=1,
        )
        self.ledger.record_split(event)
        if self.cache is not None:
            self.cache.on_split(event)
        return event, remote_bucket

    def _maybe_merge(self, bucket: LeafBucket) -> list[MergeEvent]:
        """Merge with the sibling while both are small leaves (§3.2).

        The merge is the split's dual (§8.2): the child named ``f_n(λ)``
        absorbs the child named ``λ`` (one routed get to fetch the
        sibling, one routed remove to retire its key), and the survivor is
        relabelled to the parent *in place* — its DHT key is unchanged.
        """
        events: list[MergeEvent] = []
        while bucket.label.depth >= 2:
            parent = bucket.label.parent
            sibling_label = bucket.label.sibling
            # Which child keeps the parent's storage key?  The one whose
            # own name equals f_n(parent) (Theorem 2's "local leaf").
            local_is_us = naming(bucket.label) == naming(parent)
            remote_key = parent if local_is_us else naming(parent)
            peer = self.reads.fetch(str(remote_key))
            lookups = 1
            if not isinstance(peer, LeafBucket) or peer.label != sibling_label:
                break  # the sibling subtree is not a single leaf
            combined = len(bucket) + len(peer) + 1
            if combined >= self.config.merge_threshold:
                break

            if local_is_us:
                survivor, absorbed, absorbed_key = bucket, peer, parent
            else:
                survivor, absorbed, absorbed_key = peer, bucket, parent
            moved = len(absorbed)
            survivor.label = parent
            survivor.extend(list(absorbed.records))
            # The survivor's storage key is unchanged (f_n of the local
            # child equals f_n of the parent): a local disk write.
            self.dht.local_write(str(naming(parent)), survivor)
            self.dht.remove(str(absorbed_key))
            lookups += 1
            self.dht.metrics.record_moved_records(moved)

            event = MergeEvent(
                survivor=parent,
                absorbed=absorbed.label,
                records_moved=moved,
                dht_lookups=lookups,
            )
            self.ledger.record_merge(event)
            events.append(event)
            if self.cache is not None:
                self.cache.on_merge(event)
            bucket = survivor
        return events

    # ------------------------------------------------------------------
    # Introspection (derived from the stored leaves)
    # ------------------------------------------------------------------

    def _leaves(self) -> list[LeafBucket]:
        """Every stored leaf bucket: one oracle walk, no lookup cost."""
        return list(stored_buckets(self.dht).values())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._leaves())

    @property
    def leaf_count(self) -> int:
        """Number of stored leaf buckets."""
        return len(self._leaves())

    @property
    def depth(self) -> int:
        """Depth in bits of the deepest stored leaf."""
        return max(bucket.label.depth for bucket in self._leaves())

    def leaf_labels(self) -> list[Label]:
        """All stored leaf labels in left-to-right order."""
        return sorted(
            (bucket.label for bucket in self._leaves()),
            key=lambda lab: (lab.interval.low, lab.depth),
        )
