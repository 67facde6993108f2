"""E25 — routing diversity: LHT costs from single-hop to log-hop overlays.

The "any DHT" claim (paper §3, footnote 5) means the index pays the same
number of DHT-lookups on every substrate while each lookup's physical
cost is the overlay's routing cost.  The substrate registry makes this
sweep total: every registered overlay — now spanning both routing
extremes, from D1HT-style single-hop (exactly 1 hop converged) through
de Bruijn Koorde (``O(log n / log log n)``) to Chord/Kademlia
(``O(log n)``) and CAN (``O(sqrt N)``) — runs the same build / point
lookup / range workload, and each figure reports mean routed hops per
DHT-lookup in that phase.

Three results, one per phase: E25 (point lookups), E25b (range
queries), E25c (bulk build).  Index-level DHT-lookup counts are
asserted identical across all substrates per phase, so the figures
isolate pure routing cost; substrate rows therefore order by overlay
diameter (onehop flat at 1.0, koorde between onehop and chord).
"""

from __future__ import annotations

from repro.core.config import IndexConfig
from repro.dht import registry
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    count_query_time,
    hops_per_lookup,
    scale_params,
    trial_rng,
)
from repro.workloads.datasets import make_keys
from repro.workloads.queries import lookup_keys, span_ranges

__all__ = ["run"]

_SCALES = {
    "ci": {
        "n_peers": [16, 32],
        "size": 1 << 9,
        "n_lookups": 40,
        "n_ranges": 6,
        "span": 0.05,
    },
    "paper": {
        "n_peers": [16, 64, 256],
        "size": 1 << 11,
        "n_lookups": 120,
        "n_ranges": 12,
        "span": 0.05,
    },
}

_THETA = 20
#: Result id and title suffix per measured phase, in published order
#: (the phases *run* build → lookup → range on one index).
_PHASES = {
    "lookup": ("E25", "point lookups"),
    "range": ("E25b", "range queries"),
    "build": ("E25c", "bulk build"),
}


def _phase_hops(
    substrate: str, n_peers: int, params: dict, seed: int, reference: dict
) -> dict[str, float]:
    """Hops per DHT-lookup of each phase on one overlay of ``n_peers``."""
    # Identical workload across substrates (the invariance check
    # depends on it): the stream name omits the substrate.
    rng = trial_rng(seed, f"routing_diversity:{n_peers}", 0)
    dht = registry.make(substrate, n_peers, seed)
    keys = make_keys("uniform", params["size"], rng)
    index = None

    def build() -> None:
        nonlocal index
        index = build_index(
            "lht", dht, IndexConfig(theta_split=_THETA, max_depth=20), keys
        )

    def lookup() -> None:
        with count_query_time():
            for probe in lookup_keys(params["n_lookups"], rng):
                index.lookup(float(probe))

    def range_() -> None:
        with count_query_time():
            for query in span_ranges(params["n_ranges"], params["span"], rng):
                index.range_query(query.lo, query.hi)

    return {
        phase: hops_per_lookup(
            substrate, dht, step, f"{phase} at N={n_peers}", reference
        )
        for phase, step in (("build", build), ("lookup", lookup), ("range", range_))
    }


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Routed hops per DHT-lookup, per phase, across every substrate."""
    params = scale_params(_SCALES, scale)
    xs = [float(n) for n in params["n_peers"]]

    hop_series: dict[str, list[Series]] = {phase: [] for phase in _PHASES}
    reference_cost: dict = {}
    for substrate in registry.names():
        hops = [
            _phase_hops(substrate, n_peers, params, seed, reference_cost)
            for n_peers in params["n_peers"]
        ]
        for phase in _PHASES:
            hop_series[phase].append(
                Series(substrate, list(xs), [point[phase] for point in hops])
            )

    shared = {"scale": scale, "seed": seed, "theta_split": _THETA, **params}
    notes = (
        "index-level DHT-lookup counts verified identical across all "
        f"{len(registry.names())} registered substrates in every phase; hop "
        "rows order by overlay diameter (onehop == 1.0 when converged)"
    )
    return [
        ExperimentResult(
            experiment_id=exp_id,
            title=f"Routing diversity: hops per DHT-lookup ({what})",
            x_label="number of peers",
            y_label="mean hops per DHT-lookup",
            params=dict(shared),
            series=hop_series[phase],
            notes=notes,
        )
        for phase, (exp_id, what) in _PHASES.items()
    ]
