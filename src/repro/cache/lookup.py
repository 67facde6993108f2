"""Cache-fronted LHT-lookup: 1 validated DHT-get on a hit.

The fast path exploits the same fact Alg. 2 does — any fetched leaf
bucket whose interval covers ``δ`` *is* the covering leaf, because the
live leaves partition the key space.  So a hit needs exactly one routed
get, of ``f_n(cached label)``, and the bucket that comes back proves or
refutes the entry by geometry alone:

* the bucket covers ``δ`` — done (``cache_hits``); if a split relabelled
  the bucket in place (Theorem 2 keeps one child under the parent's
  name), the entry is refreshed to the new label in passing;
* the bucket exists but does not cover ``δ``, or the get failed (an
  unrescued lost reply reads as a miss, see
  :class:`~repro.core.lookup.ReadPath`) — the entry is stale
  (``cache_stale``): invalidate it and fall back to the full binary
  search, whose result re-primes the cache.

Failure discipline (the resilience layer sits *below* the cache): a
typed :class:`~repro.errors.DHTError` — routing failure, open circuit
breaker — aborts the lookup without touching the cache.  An errored
probe says nothing about the entry's validity, and treating it as
evidence would let an open breaker drain (or worse, poison) the cache
the moment the substrate degrades.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.leafcache import LeafCache
from repro.core.bucket import LeafBucket
from repro.core.config import IndexConfig
from repro.core.lookup import Plan, lookup_plan
from repro.core.label import Label
from repro.core.naming import naming_bits
from repro.core.results import LookupResult
from repro.dht.metrics import MetricsRecorder

__all__ = ["cached_plan"]


def cached_plan(
    config: IndexConfig, cache: LeafCache, metrics: MetricsRecorder, key: float
) -> Plan:
    """:func:`~repro.core.lookup.lookup_plan` with the cache probe in front.

    A driver whose fetch raises abandons the plan at its ``yield``, so
    an errored probe leaves the cache untouched (see module docs — it is
    not evidence of staleness).
    """
    candidate = cache.lookup(key, config.max_depth)
    if candidate is not None:
        name = "#" + naming_bits(candidate.bits)
        bucket = yield name
        if isinstance(bucket, LeafBucket) and bucket.contains_key(key):
            metrics.record_cache_hit()
            if bucket.label != candidate:
                # Split kept this child under the parent's name
                # (Theorem 2); adopt the current label.
                cache.invalidate(candidate)
                cache.store(bucket.label)
            return LookupResult(bucket, Label(name[1:]), 1, (name,))
        metrics.record_cache_stale()
        cache.invalidate(candidate)
    else:
        metrics.record_cache_miss()

    result = yield from lookup_plan(config, key)
    if result.bucket is not None:
        cache.store(result.bucket.label)
    if candidate is not None:  # the stale validation probe is charged too
        result = replace(result, dht_lookups=result.dht_lookups + 1)
    return result

