"""E21 — query-traffic hot spots (extension).

Storage load in LHT is uniform (E15), but *query* traffic is not: the
lookup binary search always probes mid-length name classes first, min
queries always hit ``#``, and general range forwarding always probes
``f_n(LCA)``.  This experiment measures per-key and per-peer access
distributions under a realistic query mix and reports the traffic Gini
plus the hottest DHT keys — quantifying a practical deployment concern
the paper does not discuss (caching or replicating hot name classes).
"""

from __future__ import annotations

from typing import cast

from repro.core.config import IndexConfig
from repro.dht import registry
from repro.dht.accesslog import AccessLoggingDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    scale_params,
    trial_rng,
)
from repro.experiments.stats import gini_coefficient
from repro.workloads.datasets import make_keys
from repro.workloads.queries import lookup_keys, span_ranges

__all__ = ["run"]

_SCALES = {
    "ci": {"size": 1 << 12, "n_lookups": 500, "n_ranges": 100, "n_peers": 128},
    "paper": {"size": 1 << 15, "n_lookups": 5_000, "n_ranges": 1_000, "n_peers": 512},
}

_THETA = 100


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Access-load skew of query traffic over an LHT."""
    params = scale_params(_SCALES, scale)
    rng = trial_rng(seed, "hotspots", 0)
    dht = cast(
        AccessLoggingDHT, registry.stack("accesslog/local", params["n_peers"], seed)
    )
    index = build_index(
        "lht",
        dht,
        IndexConfig(theta_split=_THETA, max_depth=20),
        make_keys("uniform", params["size"], rng),
    )
    dht.reset_log()  # measure query traffic only

    for probe in lookup_keys(params["n_lookups"], rng):
        index.lookup(float(probe))
    for query in span_ranges(params["n_ranges"], 0.05, rng):
        index.range_query(query.lo, query.hi)
    for _ in range(50):
        index.min_query()
        index.max_query()

    peer_counts = list(dht.peer_accesses().values())
    # pad with silent peers so the Gini covers the whole overlay
    peer_counts += [0] * (dht.n_peers - len(peer_counts))
    key_counts = list(dht.key_accesses.values())
    hottest = dht.hottest_keys(5)
    total = sum(key_counts)

    return [
        ExperimentResult(
            experiment_id="E21",
            title="Query-traffic hot spots (extension)",
            x_label="metric index [(0, per-peer traffic Gini), "
            "(1, per-key traffic Gini), (2, hottest-key share)]",
            y_label="skew measure",
            params={"scale": scale, "seed": seed, "theta_split": _THETA, **params},
            series=[
                Series(
                    "lht",
                    [0.0, 1.0, 2.0],
                    [
                        gini_coefficient(peer_counts),
                        gini_coefficient(key_counts),
                        hottest[0][1] / total,
                    ],
                )
            ],
            notes=(
                "hottest keys: "
                + ", ".join(f"{k} ({c})" for k, c in hottest)
            ),
        )
    ]
