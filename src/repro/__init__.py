"""repro — a reproduction of *LHT: A Low-Maintenance Indexing Scheme over
DHTs* (Tang & Zhou, ICDCS 2008).

The package provides:

* :class:`repro.LHTIndex` — the paper's contribution: a distributed
  space-partition tree mapped onto any generic DHT by the naming function
  ``f_n``, supporting exact-match, range, and min/max queries with
  one-DHT-lookup splits;
* DHT substrates (:class:`repro.LocalDHT`, :class:`repro.ChordDHT`,
  :class:`repro.KademliaDHT`, :class:`repro.PastryDHT`) behind one
  put/get interface;
* the PHT / raw-DHT baselines (:mod:`repro.baselines`);
* the paper's linear cost model (:mod:`repro.costmodel`);
* workload generators (:mod:`repro.workloads`) and the experiment harness
  (:mod:`repro.experiments`) regenerating every figure in §9;
* a serving layer (:mod:`repro.serve`) driving the index from many
  concurrent client sessions — admission control, lookup coalescing
  onto batched DHT rounds, and latency percentiles (see
  ``docs/serving.md``).

Quickstart::

    from repro import LHTIndex, LocalDHT

    index = LHTIndex(LocalDHT(n_peers=64))
    index.insert(0.42, "answer")
    print(index.range_query(0.4, 0.5).records)
"""

from repro.baselines import NaiveIndex, PHTIndex
from repro.cache import LeafCache
from repro.core import (
    ExactMatchResult,
    IndexConfig,
    IndexInspector,
    Label,
    LeafBucket,
    LHTIndex,
    MatchStatus,
    Range,
    Record,
    ReferenceTree,
)
from repro.costmodel import LinearCostModel, saving_ratio
from repro.dht import (
    CANDHT,
    ChordDHT,
    DHT,
    KademliaDHT,
    LocalDHT,
    MetricsRecorder,
    PastryDHT,
)
from repro.resilience import (
    CircuitBreaker,
    ResilientDHT,
    RetryPolicy,
)

__version__ = "1.0.0"

__all__ = [
    "NaiveIndex",
    "PHTIndex",
    "LeafCache",
    "ExactMatchResult",
    "IndexConfig",
    "IndexInspector",
    "Label",
    "LeafBucket",
    "LHTIndex",
    "MatchStatus",
    "Range",
    "Record",
    "ReferenceTree",
    "LinearCostModel",
    "saving_ratio",
    "CANDHT",
    "ChordDHT",
    "DHT",
    "KademliaDHT",
    "LocalDHT",
    "MetricsRecorder",
    "PastryDHT",
    "CircuitBreaker",
    "ResilientDHT",
    "RetryPolicy",
    "__version__",
]
