"""Range queries over LHT (paper §6, Algorithms 3 and 4).

A range query ``[l, u)`` is answered by sweeping the leaves that overlap
the range, using only the *local tree* each leaf can infer from its own
label (§3.3) — no maintained leaf links, unlike PHT.

**Simple case** (Alg. 3): the current bucket contains one bound of its
subrange.  The bucket locally enumerates its neighboring subtrees via the
right/left-neighbor functions ``f_rn``/``f_ln``; each subtree fully inside
the range is handed (one DHT-lookup of ``f_n(β)``, which cannot fail) to
its extreme leaf, which recursively sweeps back *into* the subtree; the
final, partially overlapped subtree ``β_k`` is handed to its near-edge
leaf via a DHT-lookup of ``β_k`` itself — the single lookup per sweep that
can fail (when ``β_k`` happens to be a leaf), repaired by one extra lookup
of ``f_n(β_k)``.

**General case** (Alg. 4): the initiator computes the range's lowest
common ancestor ``LCA`` locally and probes ``f_n(LCA)``:

* failed get — the whole range lies in a single leaf: degenerate to an
  LHT-lookup of ``l``;
* returned bucket overlaps the range — it must contain a bound (it is the
  extreme leaf of a subtree enclosing the range): simple case;
* no overlap — fork to the leaves named ``LCA0`` and ``LCA1``, which
  contain the range's split point from either side; each side is a simple
  case.  (If one of those children is itself a leaf, the pseudocode's
  lookup fails; we repair with one ``f_n(child)`` lookup, which the
  paper's cost bound absorbs in its "+3".)

**Batched parallel rounds.**  The paper's latency claim (§9.4) rests on
all forwards issued by one bucket going out *in parallel*; this executor
makes that literal.  Expansion is frontier-driven: every DHT-get due at
sequential step ``s`` is collected into one frontier and issued as a
single :meth:`~repro.dht.base.DHT.multi_get` round; the buckets that
come back enqueue their own forwards for step ``s + 1`` (repairs for
``s + 2`` — a repair is sequential after the probe it repairs).  The
total lookup count is exactly what the sequential formulation charges —
at most ``B + 3`` for ``B`` result buckets (§6.3) — while latency is
reported honestly as ``parallel_steps``, the longest chain of dependent
lookups, with ``batch_rounds`` counting the multi-get rounds actually
issued.  (The degenerate single-leaf case is the one inherently
sequential stretch: Alg. 2's binary search.)

**Typed answers.**  Under a faulty substrate the required gets above
can fail even after repair.  The executor never returns silently partial
data and never raises for it: substrate-raised
:class:`~repro.errors.DHTError` (routing failures, open circuit
breakers) is absorbed per frontier key
(:meth:`~repro.core.lookup.ReadPath.round`), a key that got no reply is
re-asked of the replica holders,
and a subtree still unreachable has its interval *recorded* while the
sweep goes on — ``complete=False`` plus the unreachable ranges tell the
caller exactly which slices of the answer are missing.  (Raising instead
is a view :meth:`LHTIndex.range_query` offers on top.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Callable

from repro.core.bucket import LeafBucket, Record
from repro.core.config import IndexConfig
from repro.core.interval import Range
from repro.core.label import Label
from repro.core.lookup import ReadPath, drive_plan, lookup_plan
from repro.core.naming import left_neighbor, naming, right_neighbor
from repro.core.results import LookupResult, RangeQueryResult
from repro.dht.base import DHT
from repro.errors import DHTError, LookupError_

__all__ = ["compute_lca", "RangeQueryExecutor"]


def compute_lca(rng: Range, max_depth: int) -> Label:
    """The deepest tree label whose interval contains the whole range.

    This is the ``computeLCA`` of Alg. 4 line 1 — computed locally from
    the range bounds alone (no probing): the deepest level's first and
    last cells the range touches share exactly the LCA's bits.  Scaling
    an endpoint by a power of two is exact.
    """
    levels = max_depth - 1  # the leading 0 is the virtual-root edge
    first = int(rng.lo * (1 << levels))
    last = max(first, math.ceil(rng.hi * (1 << levels)) - 1)
    shared = levels - (first ^ last).bit_length()
    return Label(format(first >> (levels - shared), f"0{shared + 1}b"))


#: One DHT-get due at some sequential step, with its continuations:
#: (key, on_value, on_miss).
_PendingGet = tuple[Label, Callable[[LeafBucket], None], Callable[[], None]]


@dataclass(slots=True)
class _QueryState:
    """Mutable accounting shared by one query execution."""

    #: Visited leaf -> its slice of the answer.  Leaves are disjoint and
    #: each slice is sorted, so the slices in leaf order *are* the
    #: sorted answer — no record is ever compared with another.
    slices: dict[Label, list[Record]] = field(default_factory=dict)
    dht_lookups: int = 0
    failed_lookups: int = 0
    max_step: int = 0
    batch_rounds: int = 0
    collect_calls: int = 0  # diagnostics: equals len(visited) iff the
    # range decomposition is truly disjoint (asserted in tests)
    unreachable: list[Range] = field(default_factory=list)
    #: Frontier: step -> gets due at that step, in enqueue order.
    pending: dict[int, list[_PendingGet]] = field(default_factory=dict)

    def mark_unreachable(self, rng: Range) -> None:
        """Record a sub-range whose leaves could not be fetched."""
        if not rng.is_empty:
            self.unreachable.append(rng)


class RangeQueryExecutor:
    """Executes LHT range queries over a DHT (Algs. 3-4)."""

    def __init__(
        self, dht: DHT, config: IndexConfig, reads: ReadPath | None = None
    ) -> None:
        self._dht = dht
        self._config = config
        self._reads = reads if reads is not None else ReadPath(dht, config)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def run(self, rng: Range) -> RangeQueryResult:
        """Answer the range query ``[rng.lo, rng.hi)``.

        Unreachable subtrees produce an incomplete result
        (``complete=False`` plus their intervals), never an exception;
        the answer is always a *correct subset* with its gaps declared.
        """
        state = _QueryState()
        if not rng.is_empty:
            self._general_forward(rng, state)
            self._drain(state)
        # Bit strings of disjoint leaves sort left to right.
        leaves = sorted(state.slices, key=attrgetter("bits"))
        records = chain.from_iterable(state.slices[leaf] for leaf in leaves)
        unreachable = tuple(sorted(state.unreachable, key=lambda r: r.lo))
        if unreachable:
            self._dht.metrics.record_degraded()
        return RangeQueryResult(
            records=tuple(records),
            dht_lookups=state.dht_lookups,
            failed_lookups=state.failed_lookups,
            parallel_steps=state.max_step,
            buckets_visited=len(state.slices),
            collect_calls=state.collect_calls,
            complete=not unreachable,
            unreachable=unreachable,
            batch_rounds=state.batch_rounds,
        )

    # ------------------------------------------------------------------
    # Frontier machinery
    # ------------------------------------------------------------------

    def _enqueue(
        self,
        state: _QueryState,
        key: Label,
        step: int,
        on_value: Callable[[LeafBucket], None],
        on_miss: Callable[[], None],
    ) -> None:
        state.pending.setdefault(step, []).append((key, on_value, on_miss))

    def _drain(self, state: _QueryState) -> None:
        """Issue pending gets round by round until the frontier is empty.

        Each round batches every get due at the earliest pending step
        into one ``multi_get`` — one parallel round of routed lookups.
        Continuations enqueue strictly later steps, so rounds advance
        monotonically and the loop terminates with the sweep.
        """
        while state.pending:
            step = min(state.pending)
            batch = state.pending.pop(step)
            state.batch_rounds += 1
            state.dht_lookups += len(batch)
            state.max_step = max(state.max_step, step)
            # Only slots with no reply are re-asked of the replica
            # holders; an answered "not stored" prunes or repairs as is.
            values = self._reads.round([str(key) for key, _, _ in batch])
            for (_, on_value, on_miss), value in zip(batch, values):
                if value is None:
                    state.failed_lookups += 1
                    on_miss()
                else:
                    on_value(value)

    # ------------------------------------------------------------------
    # General case (Alg. 4)
    # ------------------------------------------------------------------

    def _general_forward(self, rng: Range, state: _QueryState) -> None:
        lca = compute_lca(rng, self._config.max_depth)
        self._enqueue(
            state,
            naming(lca),
            1,
            on_value=lambda bucket: self._after_lca_probe(
                bucket, lca, rng, state
            ),
            on_miss=lambda: self._degenerate_lookup(rng, state),
        )

    def _after_lca_probe(
        self, bucket: LeafBucket, lca: Label, rng: Range, state: _QueryState
    ) -> None:
        if bucket.label.interval.overlaps(rng):
            # Case 2: the returned extreme leaf contains one range bound.
            self._simple_case(bucket, rng, 1, state)
            return

        # Case 3: the range straddles LCA's midpoint but the extreme leaf
        # lies outside it — fork to both children (one parallel round).
        mid = lca.interval.midpoint
        for child, sub in (
            (lca.left_child, Range(rng.lo, min(mid, rng.hi))),
            (lca.right_child, Range(max(mid, rng.lo), rng.hi)),
        ):
            if not sub.is_empty:
                self._probe_subtree(child, sub, 2, state)

    def _degenerate_lookup(self, rng: Range, state: _QueryState) -> None:
        """Case 1: no internal node ``f_n(LCA)`` — the whole range lies in
        one leaf at or above it.  Degenerate to an exact-match-style
        lookup of the lower bound (inherently sequential: Alg. 2)."""
        key = float(rng.lo)
        try:
            result: LookupResult | None = drive_plan(
                self._reads.fetch, lookup_plan(self._config, key)
            )
        except DHTError:
            result = None
        if result is None or result.bucket is None:
            result = self._reads.redrive(key, result)
        state.dht_lookups += result.dht_lookups
        state.max_step = max(state.max_step, 1 + result.dht_lookups)
        if result.bucket is None:
            state.mark_unreachable(rng)
            return
        # If the leaf does not cover the range, the single-leaf premise
        # is falsified by the leaf itself: the probe of f_n(LCA) must
        # have been *dropped*, not absent.  The leaf still contains the
        # lower bound, so the sweep goes on from it instead of silently
        # returning one bucket's slice of the answer.
        self._recover(result.bucket, rng, 1 + result.dht_lookups, state)

    # ------------------------------------------------------------------
    # Simple case (Alg. 3)
    # ------------------------------------------------------------------

    def _simple_case(
        self, bucket: LeafBucket, rng: Range, step: int, state: _QueryState
    ) -> None:
        """Collect from ``bucket`` and sweep across its neighboring trees.

        Precondition (the paper's "simple case"): ``bucket`` contains one
        bound of ``rng``.
        """
        if rng.is_empty:
            return
        self._collect(bucket, rng, state)
        interval = bucket.label.interval
        low, high = interval.low, interval.high
        if low <= rng.lo and rng.hi <= high:
            return  # the bucket covers the whole (sub)range
        if low <= rng.lo:
            self._sweep(bucket, rng, step, state, rightwards=True)
        elif low < rng.hi <= high:
            self._sweep(bucket, rng, step, state, rightwards=False)
        else:
            raise LookupError_(
                f"simple-case invariant violated: {bucket.label} vs {rng}"
            )

    def _sweep(
        self,
        bucket: LeafBucket,
        rng: Range,
        step: int,
        state: _QueryState,
        rightwards: bool,
    ) -> None:
        """Enqueue forwards across successive neighboring subtrees.

        All forwards go out in parallel from this bucket (it infers every
        branch node locally from its label), so each joins the frontier
        at ``step + 1``; recursion into a subtree deepens the chain.
        """
        beta = bucket.label
        while True:
            if rightwards:
                if beta.on_rightmost_spine:
                    return
                beta = right_neighbor(beta)
                inv = beta.interval
                if inv.low >= rng.hi:
                    return
                contained = inv.high <= rng.hi
            else:
                if beta.on_leftmost_spine:
                    return
                beta = left_neighbor(beta)
                inv = beta.interval
                if inv.high <= rng.lo:
                    return
                contained = inv.low >= rng.lo

            if contained:
                # The whole neighboring tree lies in range: hand its own
                # interval to its extreme leaf, stored under f_n(β).
                # This lookup cannot fail (Theorem 1 names some leaf f_n(β)
                # whether β is internal or a leaf itself) — a miss means
                # the get was dropped.
                self._enqueue(
                    state,
                    naming(beta),
                    step + 1,
                    on_value=lambda b, inv=inv, s=step + 1: self._simple_case(
                        b, inv.to_range(), s, state
                    ),
                    on_miss=lambda inv=inv: state.mark_unreachable(
                        inv.to_range()
                    ),
                )
                boundary_hit = (
                    inv.high == rng.hi if rightwards else inv.low == rng.lo
                )
                if boundary_hit:
                    return
            else:
                # β_k: the final subtree, containing the far bound strictly
                # inside — the one lookup per sweep that can fail.
                sub = (
                    Range(inv.low, rng.hi)
                    if rightwards
                    else Range(rng.lo, inv.high)
                )
                self._probe_subtree(beta, sub, step + 1, state)
                return

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _probe_subtree(
        self, beta: Label, sub: Range, step: int, state: _QueryState
    ) -> None:
        """Hand ``sub`` to subtree ``β``'s near-edge leaf, stored under
        ``β`` itself.  If ``β`` is a leaf that get fails: its bucket
        lives under ``f_n(β)`` — a repair sequential after the failure."""
        self._enqueue(
            state,
            beta,
            step,
            on_value=lambda b: self._simple_case(b, sub, step, state),
            on_miss=lambda: self._enqueue(
                state,
                naming(beta),
                step + 1,
                on_value=lambda b: self._recover(b, sub, step + 1, state),
                on_miss=lambda: state.mark_unreachable(sub),
            ),
        )

    def _recover(
        self, repaired: LeafBucket, sub: Range, step: int, state: _QueryState
    ) -> None:
        """Dispatch a subrange to a bucket fetched by a repair.

        On a clean substrate the failed get that triggered the repair
        proves its label a leaf, so ``repaired`` covers ``sub`` entirely
        and the simple case ends at its collect.  Under dropped replies
        that proof is unsound: the repair may have fetched just the
        *extreme leaf* of an internal subtree.  The bucket's own label
        exposes the lie — the simple-case sweep goes on when it still
        contains a bound of ``sub``, and otherwise ``sub`` is marked
        unreachable rather than answered in part.
        """
        interval = repaired.label.interval
        if interval.low <= sub.lo < interval.high or (
            interval.low < sub.hi <= interval.high
        ):
            self._simple_case(repaired, sub, step, state)
        else:
            state.mark_unreachable(sub)

    @staticmethod
    def _collect(bucket: LeafBucket, rng: Range, state: _QueryState) -> None:
        state.collect_calls += 1
        if bucket.label not in state.slices:
            state.slices[bucket.label] = bucket.records_in(rng)
