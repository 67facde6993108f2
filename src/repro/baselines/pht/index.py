"""The PHT index: the paper's main baseline (§2, §8.2, §9).

Structure and costs follow the paper's characterization exactly:

* every trie node is mapped to the DHT directly by the hash of its label;
* lookups binary-search all ``D`` candidate prefix lengths (``log D``
  probes, vs. LHT's ``log(D/2)``);
* a split turns the full leaf into an internal node *in place* and pushes
  **both** children to other peers (2 DHT-lookups, the whole bucket
  moved), then repairs the B+-tree leaf links of up to two neighbors
  (2 more DHT-lookups) — the paper's ``Ψ_PHT = θ·i + 4·j`` (Eq. 2);
* range queries come in the *sequential* flavor (lookup the lower bound,
  then walk leaf links) and the *parallel* flavor (descend the sub-trie
  under the range's LCA in parallel) — Figs. 9-10 compare LHT to both.

The capacity accounting (one slot for the label) matches the LHT bucket
model so both schemes split at identical record counts.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.baselines.pht.node import PHTNode
from repro.core.bucket import Record
from repro.core.bulkbuild import normalize_items, plan_bulk_load
from repro.core.config import IndexConfig
from repro.core.interval import Range
from repro.core.keys import key_bits, mu_path
from repro.core.label import Label, ROOT
from repro.core.range_query import compute_lca
from repro.core.results import CostLedger, RangeQueryResult, SplitEvent
from repro.dht.base import DHT
from repro.errors import LookupError_

__all__ = ["PHTIndex", "PHTLookupResult"]


class PHTLookupResult:
    """Outcome of a PHT lookup: the leaf node and the probe count."""

    __slots__ = ("node", "dht_lookups")

    def __init__(self, node: PHTNode | None, dht_lookups: int) -> None:
        self.node = node
        self.dht_lookups = dht_lookups

    @property
    def found(self) -> bool:
        return self.node is not None


class PHTIndex:
    """A Prefix Hash Tree over a generic DHT.

    Mirrors :class:`repro.core.index.LHTIndex`'s public surface so the
    experiment harness can drive either scheme interchangeably.
    """

    def __init__(self, dht: DHT, config: IndexConfig | None = None) -> None:
        self.dht = dht
        self.config = config or IndexConfig()
        self.ledger = CostLedger()
        self._leaf_bits: set[str] = {ROOT.bits}
        self.record_count = 0
        self.dht.put(str(ROOT), PHTNode(ROOT))

    # ------------------------------------------------------------------
    # Lookup: binary search over all D candidate lengths (log D probes)
    # ------------------------------------------------------------------

    def lookup(self, key: float) -> PHTLookupResult:
        """Binary-search the prefix lengths of ``μ(δ, D)`` for the leaf.

        Every trie node is addressable by its own label, so each probe
        has three outcomes: leaf (done), internal node (go longer),
        absent (go shorter).  Unlike LHT there is no name sharing to
        collapse the candidate set, so the search spans all ``D`` lengths.
        """
        mu = mu_path(key, self.config.max_depth)
        lo, hi = 2, self.config.max_depth + 1
        lookups = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            node = self.dht.get(str(mu.prefix(mid)))
            lookups += 1
            if node is None:
                hi = mid - 1
            elif node.is_leaf:
                return PHTLookupResult(node, lookups)
            else:
                lo = mid + 1
        return PHTLookupResult(None, lookups)

    def lookup_linear(self, key: float) -> PHTLookupResult:
        """Top-down linear lookup — the PHT papers' simpler variant.

        Probes each prefix length from the root downward until the leaf
        is reached: exactly ``leaf depth`` DHT-gets, versus the binary
        search's ``log D``.  Kept as an ablation baseline.
        """
        mu = mu_path(key, self.config.max_depth)
        lookups = 0
        for length in range(2, self.config.max_depth + 2):
            node = self.dht.get(str(mu.prefix(length)))
            lookups += 1
            if node is None:
                return PHTLookupResult(None, lookups)
            if node.is_leaf:
                return PHTLookupResult(node, lookups)
        return PHTLookupResult(None, lookups)

    def exact_match(self, key: float) -> tuple[Record | None, int]:
        """Return (record with exactly this key or None, DHT-lookups)."""
        result = self.lookup(key)
        if result.node is None:
            raise LookupError_(f"PHT lookup of {key} failed to converge")
        return result.node.find(key), result.dht_lookups

    def __contains__(self, key: float) -> bool:
        record, _ = self.exact_match(key)
        return record is not None

    # ------------------------------------------------------------------
    # Insertion and deletion
    # ------------------------------------------------------------------

    def insert(self, key: float, value: Any = None) -> int:
        """Insert one record; returns the DHT-lookups the operation used
        (excluding maintenance, which is ledgered separately)."""
        result = self.lookup(key)
        if result.node is None:
            raise LookupError_(f"PHT lookup of {key} failed to converge")
        lookups = result.dht_lookups
        self.dht.put(str(result.node.label), result.node)  # record travels
        lookups += 1
        self._place(result.node, Record(key, value))
        return lookups

    def delete(self, key: float) -> tuple[bool, int]:
        """Delete the record with exactly this key (no merge: the PHT
        papers do not specify one and the paper's workloads never
        delete); returns (deleted, DHT-lookups)."""
        result = self.lookup(key)
        if result.node is None:
            raise LookupError_(f"PHT lookup of {key} failed to converge")
        lookups = result.dht_lookups
        self.dht.put(str(result.node.label), result.node)
        lookups += 1
        removed = result.node.remove(key)
        if removed is not None:
            self.dht.local_write(str(result.node.label), result.node)
            self.record_count -= 1
        return removed is not None, lookups

    def bulk_load(
        self,
        items: Iterable[float | tuple[float, Any]],
        fast: bool = False,
    ) -> int:
        """Insert many records via a client-side leaf mirror (the same
        cost contract as :meth:`LHTIndex.bulk_load`: maintenance is
        charged in full, per-record routed lookups are elided).

        With ``fast=True`` the sorted client-side planner
        (:mod:`repro.core.bulkbuild` — PHT splits at the same interval
        midpoints as LHT) computes the final trie and ships each final
        node with one put: demoted internal nodes, then the leaf chain
        with its in-order ``prev``/``next`` links.  No Ψ_PHT maintenance
        traffic is charged; state is byte-identical to incrementally
        loading the sorted input.
        """
        if fast:
            return self._bulk_load_fast(items)
        count = 0
        for item in items:
            key, value = item if isinstance(item, tuple) else (item, None)
            node = self._local_find_leaf(key)
            self._place(node, Record(key, value))
            count += 1
        return count

    def _bulk_load_fast(
        self, items: Iterable[float | tuple[float, Any]]
    ) -> int:
        records = normalize_items(items)
        if not records:
            return 0
        existing: dict[str, list[Record]] = {}
        for bits in self._leaf_bits:
            node = self.dht.peek(str(Label(bits)))
            if not isinstance(node, PHTNode) or not node.is_leaf:
                raise LookupError_(f"PHT leaf mirror out of sync at #{bits}")
            existing[bits] = list(node.records)
        plan = plan_bulk_load(existing, records, self.config)
        # Leaves the replay split are now internal: record-free nodes
        # under their own (unchanged) DHT keys, links cleared.
        for bits in plan.split_bits:
            label = Label(bits)
            self.dht.put(str(label), PHTNode(label, is_leaf=False))
        # The final leaves are prefix-free, so lexicographic order of
        # their bit strings is the trie's in-order leaf chain.
        ordered = sorted(plan.leaves)
        for i, bits in enumerate(ordered):
            label = Label(bits)
            prev_label = Label(ordered[i - 1]) if i > 0 else None
            next_label = Label(ordered[i + 1]) if i + 1 < len(ordered) else None
            if bits not in plan.changed:
                old = self.dht.peek(str(label))
                if (
                    isinstance(old, PHTNode)
                    and old.prev_label == prev_label
                    and old.next_label == next_label
                ):
                    continue  # untouched leaf with intact links: no put
            self.dht.put(
                str(label),
                PHTNode(label, True, plan.leaves[bits], prev_label, next_label),
            )
        self._leaf_bits = set(plan.leaves)
        self.record_count += plan.inserted
        return plan.inserted

    # ------------------------------------------------------------------
    # Split (Ψ_PHT = θ·i + 4·j, paper Eq. 2)
    # ------------------------------------------------------------------

    def _place(self, node: PHTNode, record: Record) -> SplitEvent | None:
        event = None
        target = node
        if node.is_full(self.config.theta_split) and (
            node.label.depth < self.config.max_depth
        ):
            event, left, right = self._split(node)
            target = left if left.label.contains(record.key) else right
        target.add(record)
        # Persist the mutation at the holding peer (local disk write).
        self.dht.local_write(str(target.label), target)
        self.record_count += 1
        return event

    def _split(self, node: PHTNode) -> tuple[SplitEvent, PHTNode, PHTNode]:
        """Split a full leaf: both children move to other peers.

        The parent stays where it is (its label — hence its DHT key — is
        unchanged) but becomes an internal node holding no records; both
        children have *new* labels, hash to unrelated peers, and take all
        the records with them.  The old leaf's in-order neighbors must
        then have their ``next``/``prev`` links repointed — one routed
        update each.
        """
        parent_label = node.label
        records = node.take_all()
        mid = parent_label.interval.midpoint
        left = PHTNode(
            parent_label.left_child,
            records=[r for r in records if r.key < mid],
            prev_label=node.prev_label,
            next_label=parent_label.right_child,
        )
        right = PHTNode(
            parent_label.right_child,
            records=[r for r in records if r.key >= mid],
            prev_label=parent_label.left_child,
            next_label=node.next_label,
        )
        node.is_leaf = False
        old_prev, old_next = node.prev_label, node.next_label
        node.prev_label = node.next_label = None
        # Demoting the parent to an internal node is a local disk write.
        self.dht.local_write(str(parent_label), node)

        # Two remote children: 2 DHT-lookups, the whole bucket moved.
        self.dht.put(str(left.label), left)
        self.dht.put(str(right.label), right)
        self.dht.metrics.record_moved_records(len(records))
        maintenance = 2

        # B+-tree link repair: route an update to each live neighbor.
        if old_prev is not None:
            neighbor = self.dht.peek(str(old_prev))
            if isinstance(neighbor, PHTNode):
                neighbor.next_label = left.label
                self.dht.put(str(old_prev), neighbor)
                maintenance += 1
        if old_next is not None:
            neighbor = self.dht.peek(str(old_next))
            if isinstance(neighbor, PHTNode):
                neighbor.prev_label = right.label
                self.dht.put(str(old_next), neighbor)
                maintenance += 1

        alpha = len(records) and (len(records) + 2) / (
            2 * self.config.theta_split
        )  # both halves remote; recorded for completeness
        event = SplitEvent(
            parent=parent_label,
            local=left.label,
            remote=right.label,
            alpha=float(alpha),
            records_moved=len(records),
            dht_lookups=maintenance,
        )
        self.ledger.record_split(event)
        self._leaf_bits.discard(parent_label.bits)
        self._leaf_bits.add(left.label.bits)
        self._leaf_bits.add(right.label.bits)
        return event, left, right

    # ------------------------------------------------------------------
    # Range queries (the two published algorithms)
    # ------------------------------------------------------------------

    def range_query(self, lo: float, hi: float) -> RangeQueryResult:
        """Default range algorithm (the sequential variant [16]) —
        provided so PHT satisfies the same query surface as LHT for
        trace replay and harness code."""
        return self.range_query_sequential(lo, hi)

    def range_query_sequential(self, lo: float, hi: float) -> RangeQueryResult:
        """PHT(sequential) [16]: lookup the lower bound, then walk the
        B+-tree leaf links rightwards.  Near-optimal bandwidth, fully
        sequential latency."""
        rng = Range(lo, hi)
        if rng.is_empty:
            return RangeQueryResult((), 0, 0, 0, 0)
        result = self.lookup(float(rng.lo))
        if result.node is None:
            raise LookupError_(f"PHT lookup of {lo} failed to converge")
        lookups = result.dht_lookups
        steps = result.dht_lookups
        records: list[Record] = []
        visited = 0
        node: PHTNode | None = result.node
        while node is not None:
            records.extend(node.records_in(rng))
            visited += 1
            if node.next_label is None or node.label.interval.high >= rng.hi:
                break
            fetched = self.dht.get(str(node.next_label))
            lookups += 1
            steps += 1
            if not isinstance(fetched, PHTNode):
                raise LookupError_(f"broken leaf link at {node.label}")
            node = fetched
        # The walk runs left to right: the slices arrive in key order.
        return RangeQueryResult(
            records=tuple(records),
            dht_lookups=lookups,
            failed_lookups=0,
            parallel_steps=steps,
            buckets_visited=visited,
        )

    def range_query_parallel(self, lo: float, hi: float) -> RangeQueryResult:
        """PHT(parallel) [4]: jump to the range's LCA node and descend the
        sub-trie, forwarding to both overlapping children in parallel.
        Low latency, but every internal node of the sub-trie costs a
        lookup — the bandwidth overhead Fig. 9 shows."""
        rng = Range(lo, hi)
        if rng.is_empty:
            return RangeQueryResult((), 0, 0, 0, 0)
        state = {"lookups": 0, "failed": 0, "steps": 0, "visited": 0}
        records: list[Record] = []

        lca = compute_lca(rng, self.config.max_depth)
        node = self.dht.get(str(lca))
        state["lookups"] += 1
        state["steps"] = 1
        if node is None:
            state["failed"] += 1
            # The trie is shallower than the LCA on this path: one leaf
            # above it covers the whole range.
            result = self.lookup(float(rng.lo))
            state["lookups"] += result.dht_lookups
            state["steps"] += result.dht_lookups
            if result.node is None:
                raise LookupError_(f"PHT lookup of {lo} failed to converge")
            records.extend(result.node.records_in(rng))
            state["visited"] += 1
        else:
            # Left child before right: the slices arrive in key order.
            self._descend(node, rng, 1, state, records)

        return RangeQueryResult(
            records=tuple(records),
            dht_lookups=state["lookups"],
            failed_lookups=state["failed"],
            parallel_steps=state["steps"],
            buckets_visited=state["visited"],
        )

    def _descend(
        self,
        node: PHTNode,
        rng: Range,
        step: int,
        state: dict[str, int],
        records: list[Record],
    ) -> None:
        if node.is_leaf:
            records.extend(node.records_in(rng))
            state["visited"] += 1
            return
        for child_label in (node.label.left_child, node.label.right_child):
            if not child_label.interval.overlaps(rng):
                continue
            child = self.dht.get(str(child_label))
            state["lookups"] += 1
            state["steps"] = max(state["steps"], step + 1)
            if child is None:
                state["failed"] += 1
                raise LookupError_(f"missing trie child {child_label}")
            self._descend(child, rng, step + 1, state, records)

    # ------------------------------------------------------------------
    # Min/max (for API parity: PHT walks the trie edge, one probe per
    # level — there is no 1-lookup shortcut like LHT's Theorem 3)
    # ------------------------------------------------------------------

    def min_query(self) -> tuple[Record | None, int]:
        """The smallest key, by descending the leftmost trie path."""
        return self._edge_query(leftwards=True)

    def max_query(self) -> tuple[Record | None, int]:
        """The largest key, by descending the rightmost trie path."""
        return self._edge_query(leftwards=False)

    def _edge_query(self, leftwards: bool) -> tuple[Record | None, int]:
        label = ROOT
        lookups = 0
        while True:
            node = self.dht.get(str(label))
            lookups += 1
            if node is None:
                raise LookupError_(f"missing trie node {label}")
            if node.is_leaf:
                if len(node):
                    record = node.records[0 if leftwards else -1]
                    return record, lookups
                # Empty edge leaf: walk inward via leaf links.
                link = node.next_label if leftwards else node.prev_label
                if link is None:
                    return None, lookups
                label = link
                continue
            label = node.label.left_child if leftwards else node.label.right_child

    # ------------------------------------------------------------------
    # Client-side fast path and introspection
    # ------------------------------------------------------------------

    def _local_find_leaf(self, key: float) -> PHTNode:
        path = "0" + key_bits(key, self.config.max_depth - 1)
        for end in range(1, len(path) + 1):
            bits = path[:end]
            if bits in self._leaf_bits:
                node = self.dht.peek(str(Label(bits)))
                if isinstance(node, PHTNode) and node.is_leaf:
                    return node
                raise LookupError_(f"PHT leaf mirror out of sync at #{bits}")
        raise LookupError_(f"no known PHT leaf covers {key}")

    def __len__(self) -> int:
        return self.record_count

    @property
    def leaf_count(self) -> int:
        return len(self._leaf_bits)

    @property
    def depth(self) -> int:
        return max(len(bits) for bits in self._leaf_bits)
