"""E7-E10 — range query performance (paper Figs. 9-10, §9.4).

Three algorithms are compared on identical query streams: LHT (Algs. 3-4),
PHT(sequential) (lookup + leaf-link walk) and PHT(parallel) (LCA +
parallel trie descent).  Two measures per query:

* **bandwidth** — total DHT-lookups (Fig. 9);
* **latency** — parallel steps of DHT-lookups, i.e. the longest
  sequential chain (Fig. 10).

Sweeps: data size at a fixed span (panels a), and span at a fixed data
size (panels b); both uniform and gaussian datasets.  Expected shapes:
PHT(parallel) has the highest bandwidth (it pays for every internal trie
node); LHT and PHT(sequential) are both near-optimal (≈ B lookups), LHT
slightly lower; PHT(sequential)'s latency is worst by roughly an order of
magnitude; LHT's latency beats PHT(parallel), with the advantage
shrinking for large uniform spans.

One LHT and one PHT build per (distribution, size, trial) serve all three
algorithms and all four result tables, so the harness computes E7-E10
together.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import IndexConfig
from repro.dht.local import LocalDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    scale_params,
    sweep,
)
from repro.experiments.stats import powers_of_two
from repro.workloads.datasets import make_keys
from repro.workloads.queries import span_ranges

__all__ = ["run", "ALGORITHMS", "range_algorithms"]

_SCALES = {
    "ci": {
        "exps": (8, 13),
        "trials": 3,
        "n_queries": 30,
        "fixed_size_exp": 12,
        "size_sweep_span": 0.05,
        "spans": [0.01, 0.02, 0.05, 0.1, 0.2, 0.4],
    },
    "paper": {
        "exps": (10, 16),
        "trials": 5,
        "n_queries": 100,
        "fixed_size_exp": 15,
        "size_sweep_span": 0.05,
        "spans": [0.01, 0.02, 0.05, 0.1, 0.2, 0.4],
    },
}

_THETA = 100
_MAX_DEPTH = 20
_DISTRIBUTIONS = ("uniform", "gaussian")
ALGORITHMS = ("lht", "pht-seq", "pht-par")


def range_algorithms(
    config: IndexConfig, keys, trial: int
) -> dict[str, Callable[[float, float], object]]:
    """The compared algorithms, label → ``query(lo, hi)``, over one LHT
    and one PHT bulk-built from ``keys`` (each on its own 64-peer
    ``LocalDHT`` seeded by ``trial``)."""
    lht = build_index("lht", LocalDHT(n_peers=64, seed=trial), config, keys)
    pht = build_index("pht", LocalDHT(n_peers=64, seed=trial), config, keys)
    return {
        "lht": lht.range_query,
        "pht-seq": pht.range_query_sequential,
        "pht-par": pht.range_query_parallel,
    }


def _curves(
    distribution: str,
    xs: list,
    point: Callable[[float], tuple[int, float]],
    params: dict,
    seed: int,
    tag: str,
) -> dict[str, Series]:
    """Per-algorithm bandwidth (``bw:<algo>``) and latency
    (``lat:<algo>``) curves of one distribution over one sweep."""
    config = IndexConfig(theta_split=_THETA, max_depth=_MAX_DEPTH)
    n_queries = params["n_queries"]

    def stream(x):
        size, span = point(x)
        return f"{tag}:{distribution}:{size}:{span}"

    def measure(x, trial, rng):
        size, span = point(x)
        keys = make_keys(distribution, size, rng)
        runners = range_algorithms(config, keys, trial)
        queries = span_ranges(n_queries, span, rng)
        measured: dict[str, float] = {}
        for algo, runner in runners.items():
            bw = lat = 0.0
            for query in queries:
                result = runner(query.lo, query.hi)
                bw += result.dht_lookups
                lat += result.parallel_steps
            measured[f"bw:{algo}"] = bw / n_queries
            measured[f"lat:{algo}"] = lat / n_queries
        return measured

    return sweep(seed, stream, xs, params["trials"], measure)


def _panels(
    xs: list,
    point: Callable[[float], tuple[int, float]],
    params: dict,
    seed: int,
    tag: str,
) -> tuple[list[Series], list[Series]]:
    """Run one sweep over ``xs``, measuring ``point(x) = (size, span)``
    at each; returns (bandwidth series, latency series)."""
    curves = {
        distribution: _curves(distribution, xs, point, params, seed, tag)
        for distribution in _DISTRIBUTIONS
    }
    panels: tuple[list[Series], list[Series]] = ([], [])
    for panel, kind in zip(panels, ("bw", "lat")):
        for algo in ALGORITHMS:
            for distribution in _DISTRIBUTIONS:
                series = curves[distribution][f"{kind}:{algo}"]
                series.label = f"{algo}/{distribution}"
                panel.append(series)
    return panels


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Run the four range-performance experiments: E7, E8, E9, E10."""
    params = scale_params(_SCALES, scale)
    fixed_size = 1 << params["fixed_size_exp"]
    span = params["size_sweep_span"]

    size_bw, size_lat = _panels(
        powers_of_two(*params["exps"]),
        lambda size: (size, span),
        params,
        seed,
        "range-size",
    )
    span_bw, span_lat = _panels(
        params["spans"],
        lambda query_span: (fixed_size, query_span),
        params,
        seed,
        "range-span",
    )

    common = {
        "scale": scale,
        "seed": seed,
        "theta_split": _THETA,
        "max_depth": _MAX_DEPTH,
        **params,
    }
    return [
        ExperimentResult(
            "E7",
            "Range query bandwidth vs data size (Fig. 9a)",
            "data size",
            "DHT-lookups per query",
            common,
            size_bw,
            notes=f"fixed span {span}; expect pht-par highest, lht lowest",
        ),
        ExperimentResult(
            "E8",
            "Range query bandwidth vs span (Fig. 9b)",
            "query span",
            "DHT-lookups per query",
            common,
            span_bw,
            notes=f"fixed size {fixed_size}",
        ),
        ExperimentResult(
            "E9",
            "Range query latency vs data size (Fig. 10a)",
            "data size",
            "parallel DHT-lookup steps",
            common,
            size_lat,
            notes="expect pht-seq worst by ~an order of magnitude",
        ),
        ExperimentResult(
            "E10",
            "Range query latency vs span (Fig. 10b)",
            "query span",
            "parallel DHT-lookup steps",
            common,
            span_lat,
            notes=f"fixed size {fixed_size}; expect lht < pht-par",
        ),
    ]
