"""Workload generation: datasets, query streams (paper §9.1, §9.4) and
operation traces."""

from repro.workloads.datasets import (
    DATASETS,
    clustered_keys,
    gaussian_keys,
    make_keys,
    pareto_keys,
    uniform_keys,
)
from repro.workloads.queries import (
    RangeQuerySpec,
    lookup_keys,
    random_ranges,
    span_ranges,
)
from repro.workloads.trace import Request, RequestKind, generate_trace

__all__ = [
    "DATASETS",
    "clustered_keys",
    "gaussian_keys",
    "make_keys",
    "pareto_keys",
    "uniform_keys",
    "RangeQuerySpec",
    "lookup_keys",
    "random_ranges",
    "span_ranges",
    "Request",
    "RequestKind",
    "generate_trace",
]
