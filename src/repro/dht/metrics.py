"""Instrumentation shared by all DHT substrates and index clients.

The paper's evaluation is entirely count-based (§8.1, §9): number of
DHT-lookups, number of moved records, and parallel DHT-lookup steps.  All
substrates and indexes funnel their accounting through one
:class:`MetricsRecorder`, and experiments measure operations by snapshot
difference, so the same harness works unchanged over any substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

__all__ = ["MetricsSnapshot", "MetricsRecorder"]


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Immutable counter values; supports subtraction for per-op deltas."""

    dht_lookups: int = 0
    failed_gets: int = 0
    failed_puts: int = 0
    failed_removes: int = 0
    puts: int = 0
    gets: int = 0
    removes: int = 0
    hops: int = 0
    records_moved: int = 0
    retries: int = 0
    breaker_trips: int = 0
    breaker_rejections: int = 0
    degraded_responses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale: int = 0
    serve_requests: int = 0
    serve_rejections: int = 0
    serve_batches: int = 0
    serve_coalesced_gets: int = 0
    replica_probe_gets: int = 0
    replica_failovers: int = 0
    replica_divergences: int = 0

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        return MetricsSnapshot(
            *[getattr(self, name) - getattr(other, name) for name in _COUNTERS]
        )

    def to_dict(self) -> dict[str, int]:
        """All counters as a plain dict (JSON-friendly)."""
        return {name: getattr(self, name) for name in _COUNTERS}


#: Every counter, declared once as a :class:`MetricsSnapshot` field; the
#: recorder's slots, ``reset`` and all snapshot arithmetic derive from it.
_COUNTERS: tuple[str, ...] = tuple(f.name for f in fields(MetricsSnapshot))


class MetricsRecorder:
    """Mutable counters with snapshot/delta support.

    ``dht_lookups`` counts every routed operation (get, put, remove) once —
    the paper's unit of bandwidth for index traffic.  ``hops`` additionally
    counts the physical overlay hops each routed operation took, which
    feeds the cost-model parameter ``j``.
    """

    __slots__ = _COUNTERS + ("request_latencies", "queue_depth_peak")

    if TYPE_CHECKING:  # the counter slots are ints; mypy cannot see built slots

        def __getattr__(self, name: str) -> int: ...

        def __setattr__(self, name: str, value: Any) -> None: ...

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for name in _COUNTERS:
            setattr(self, name, 0)
        #: Per-request completion latencies in simulated seconds — the
        #: raw sample behind :meth:`latency_percentiles`.  A list, not a
        #: counter: percentiles are not additive, so the serving layer
        #: keeps the sample and snapshots stay pure integer counts.
        self.request_latencies: list[float] = []
        #: High-water mark of the serving layer's waiting queue (a
        #: gauge, not a counter — excluded from snapshots for the same
        #: reason as the latency sample).
        self.queue_depth_peak = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_get(self, hops: int, found: bool) -> None:
        """Account one routed DHT-get."""
        self.dht_lookups += 1
        self.gets += 1
        self.hops += hops
        if not found:
            self.failed_gets += 1

    def record_put(self, hops: int) -> None:
        """Account one routed DHT-put."""
        self.dht_lookups += 1
        self.puts += 1
        self.hops += hops

    def record_remove(self, hops: int) -> None:
        """Account one routed DHT-remove."""
        self.dht_lookups += 1
        self.removes += 1
        self.hops += hops

    def record_failed_put(self, hops: int) -> None:
        """Account one routed DHT-put whose reply reported failure.

        The network work happened (the lookup is charged, like a dropped
        get), but the value was not stored.
        """
        self.dht_lookups += 1
        self.puts += 1
        self.hops += hops
        self.failed_puts += 1

    def record_failed_remove(self, hops: int) -> None:
        """Account one routed DHT-remove whose reply reported failure."""
        self.dht_lookups += 1
        self.removes += 1
        self.hops += hops
        self.failed_removes += 1

    def record_moved_records(self, count: int) -> None:
        """Account records shipped between peers (cost-model unit ``i``)."""
        self.records_moved += count

    # ------------------------------------------------------------------
    # Resilience-layer events (no routed traffic of their own)
    # ------------------------------------------------------------------

    def record_retry(self) -> None:
        """Account one retry attempt issued by the resilience layer.

        The retried operation itself is charged as a normal get/put/remove
        when it reaches the substrate; this counter only tracks how often
        the retry machinery fired.
        """
        self.retries += 1

    def record_breaker_trip(self) -> None:
        """Account one circuit-breaker transition to the open state."""
        self.breaker_trips += 1

    def record_breaker_rejection(self) -> None:
        """Account one operation rejected fast by an open breaker
        (no routed traffic was attempted, so nothing else is charged)."""
        self.breaker_rejections += 1

    def record_degraded(self) -> None:
        """Account one query answered with an incomplete (degraded)
        result instead of an exception or silent partial data."""
        self.degraded_responses += 1

    # ------------------------------------------------------------------
    # Replication-layer events (each probe's routed traffic is charged
    # by the substrate as usual; these count the failover machinery)
    # ------------------------------------------------------------------

    def record_replica_probe_get(self) -> None:
        """Account one replica probe issued by the replication layer.

        The probe itself is charged as a normal routed get when it
        reaches the substrate; this counter tracks how often reads had
        to look past the primary copy."""
        self.replica_probe_gets += 1

    def record_replica_failover(self) -> None:
        """Account one read answered from a replica (or a degraded query
        rescued by replica probes) after the primary path failed."""
        self.replica_failovers += 1

    def record_replica_divergence(self) -> None:
        """Account one remove that observed disagreeing replica values —
        evidence of a partial write or replica drift, surfaced instead of
        silently masked by first-non-None selection."""
        self.replica_divergences += 1

    # ------------------------------------------------------------------
    # Leaf-cache events (the validation get is charged separately as a
    # normal routed get when it reaches the substrate)
    # ------------------------------------------------------------------

    def record_cache_hit(self) -> None:
        """Account one cached leaf label validated by a single DHT-get."""
        self.cache_hits += 1

    def record_cache_miss(self) -> None:
        """Account one lookup that found no cached covering label."""
        self.cache_misses += 1

    def record_cache_stale(self) -> None:
        """Account one cached label whose validation probe no longer
        covered the key (split/merge moved the leaf, or the reply was
        dropped); the lookup fell back to the binary search."""
        self.cache_stale += 1

    # ------------------------------------------------------------------
    # Serving-layer events (the routed traffic a request causes is
    # charged by the substrate as usual; these add the request-level
    # view: completions, rejections, batching, and latency)
    # ------------------------------------------------------------------

    def record_request(self, latency: float) -> None:
        """Account one completed serve request and its end-to-end
        latency (simulated seconds, admission to completion)."""
        self.serve_requests += 1
        self.request_latencies.append(latency)

    def record_rejection(self) -> None:
        """Account one request rejected by admission control (nothing
        was routed, so nothing else is charged)."""
        self.serve_rejections += 1

    def record_batch(self, coalesced_gets: int) -> None:
        """Account one executed serve batch; ``coalesced_gets`` counts
        routed gets *saved* by deduplicating probe keys across the
        batch's concurrent lookups."""
        self.serve_batches += 1
        self.serve_coalesced_gets += coalesced_gets

    def record_queue_depth(self, depth: int) -> None:
        """Track the high-water mark of the waiting queue."""
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p90/p99 of recorded request latencies (nearest-rank).

        Returns zeros when no requests completed, so dashboards and the
        benchgate can read the dict unconditionally.
        """
        sample = sorted(self.request_latencies)
        if not sample:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
        last = len(sample) - 1

        def rank(q: float) -> float:
            return sample[min(last, int(q * len(sample)))]

        return {"p50": rank(0.50), "p90": rank(0.90), "p99": rank(0.99)}

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Capture current counter values."""
        return MetricsSnapshot(*[getattr(self, name) for name in _COUNTERS])

    def since(self, snap: MetricsSnapshot) -> MetricsSnapshot:
        """Delta between now and an earlier snapshot."""
        return self.snapshot() - snap
