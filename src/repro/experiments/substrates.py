"""E13 — substrate independence (paper §3: "adaptable to any DHT").

LHT relies only on put/get, so its index-level costs (DHT-lookup counts)
must be *identical* over every substrate — the paper's footnote 5 makes
exactly this point — while the per-lookup physical hop count varies with
the overlay (``O(log N)`` for all three routed substrates).  This
experiment runs the same workload over Local/Chord/Kademlia/Pastry at
several network sizes and reports:

* mean physical hops per routed operation (grows ~ log N);
* the index-level lookup count (asserted identical across substrates).
"""

from __future__ import annotations

from functools import partial

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht import registry
from repro.experiments.common import (
    ExperimentResult,
    Series,
    hops_per_lookup,
    scale_params,
    trial_rng,
)
from repro.workloads.datasets import make_keys
from repro.workloads.queries import lookup_keys, span_ranges

__all__ = ["run"]

_SCALES = {
    "ci": {"n_peers": [16, 64, 256], "size": 1 << 10, "n_lookups": 50},
    "paper": {"n_peers": [16, 64, 256, 1024], "size": 1 << 12, "n_lookups": 200},
}

_THETA = 20


def _queries(index: LHTIndex, n_lookups: int, rng) -> None:
    """The measured step: point lookups, then ten 5 % range queries."""
    for probe in lookup_keys(n_lookups, rng):
        index.lookup(float(probe))
    for query in span_ranges(10, 0.05, rng):
        index.range_query(query.lo, query.hi)


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Hop growth and index-cost invariance across substrates."""
    params = scale_params(_SCALES, scale)
    config = IndexConfig(theta_split=_THETA, max_depth=20)

    hop_series: list[Series] = []
    reference_cost: dict = {}
    for substrate in registry.names():
        hops: list[float] = []
        for n_peers in params["n_peers"]:
            # The workload must be identical across substrates (the whole
            # point of the invariance check), so the stream name omits the
            # substrate.
            rng = trial_rng(seed, f"substrates:{n_peers}", 0)
            dht = registry.make(substrate, n_peers, seed)
            index = LHTIndex(dht, config)
            keys = make_keys("uniform", params["size"], rng)
            for k in keys:
                index.insert(float(k))
            # Index-level lookup counts must not depend on the substrate.
            hops.append(
                hops_per_lookup(
                    substrate,
                    dht,
                    partial(_queries, index, params["n_lookups"], rng),
                    f"queries at N={n_peers}",
                    reference_cost,
                )
            )
        hop_series.append(
            Series(substrate, [float(n) for n in params["n_peers"]], hops)
        )

    return [
        ExperimentResult(
            experiment_id="E13",
            title="Physical hops per DHT-lookup across substrates",
            x_label="number of peers",
            y_label="mean hops per routed operation",
            params={"scale": scale, "seed": seed, "theta_split": _THETA, **params},
            series=hop_series,
            notes=(
                "index-level DHT-lookup counts verified identical across "
                "all substrates (paper footnote 5)"
            ),
        )
    ]
