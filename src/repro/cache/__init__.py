"""Client-side leaf-label caching for LHT (read-path extension).

The paper pays ``log(D/2)`` DHT-gets on *every* exact match; real
workloads repeat keys, and a cached leaf label is self-validating via
the label algebra, so the repeated case collapses to one validated get.
See :mod:`repro.cache.leafcache` for the data structure and safety
argument, :mod:`repro.cache.lookup` for the fronted lookup, and
``docs/performance.md`` for design notes and when *not* to enable it.

Enable per index via ``IndexConfig(cache_capacity=1024)``; observe
behaviour through the ``cache_hits`` / ``cache_misses`` / ``cache_stale``
counters on the substrate's :class:`~repro.dht.metrics.MetricsRecorder`.
"""

from repro.cache.leafcache import LeafCache
from repro.cache.lookup import cached_plan

__all__ = ["LeafCache", "cached_plan"]
