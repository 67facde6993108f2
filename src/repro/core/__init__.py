"""LHT core: labels, naming functions, buckets, and the distributed index.

This package is the paper's primary contribution (§3-§7); see
:class:`repro.core.index.LHTIndex` for the assembled system.
"""

from repro.core.bucket import LeafBucket, Record
from repro.core.config import DEFAULT_CONFIG, IndexConfig
from repro.core.index import LHTIndex
from repro.core.interval import DyadicInterval, Range, UNIT_INTERVAL
from repro.core.keys import gamma_lengths, key_bits, label_for_key, mu_path
from repro.core.label import Label, ROOT, VIRTUAL_ROOT
from repro.core.lookup import lht_lookup, lht_lookup_linear
from repro.core.minmax import max_query, min_query
from repro.core.naming import (
    lca_label,
    left_neighbor,
    leftmost_leaf_key,
    naming,
    next_naming,
    right_neighbor,
    rightmost_leaf_key,
)
from repro.core.range_query import RangeQueryExecutor, compute_lca
from repro.core.scan import KnnResult, knn_query, scan_buckets, scan_records
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
from repro.core.stats import IndexInspector, IndexStats
from repro.core.tree import ReferenceTree

__all__ = [
    "LeafBucket",
    "Record",
    "DEFAULT_CONFIG",
    "IndexConfig",
    "LHTIndex",
    "DyadicInterval",
    "Range",
    "UNIT_INTERVAL",
    "gamma_lengths",
    "key_bits",
    "label_for_key",
    "mu_path",
    "Label",
    "ROOT",
    "VIRTUAL_ROOT",
    "lht_lookup",
    "lht_lookup_linear",
    "max_query",
    "min_query",
    "lca_label",
    "left_neighbor",
    "leftmost_leaf_key",
    "naming",
    "next_naming",
    "right_neighbor",
    "rightmost_leaf_key",
    "RangeQueryExecutor",
    "compute_lca",
    "KnnResult",
    "knn_query",
    "scan_buckets",
    "scan_records",
    "CostLedger",
    "DeleteResult",
    "ExactMatchResult",
    "InsertResult",
    "LookupResult",
    "MatchStatus",
    "MergeEvent",
    "MinMaxResult",
    "RangeQueryResult",
    "SplitEvent",
    "IndexInspector",
    "IndexStats",
    "ReferenceTree",
]
