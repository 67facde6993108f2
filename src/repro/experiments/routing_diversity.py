"""E25 — substrate independence and routing diversity: LHT costs from
single-hop to log-hop overlays.

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

from repro.dht import registry
from repro.experiments.common import (
    ExperimentResult,
    Series,
    phase_hops,
    scale_params,
)

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
        "n_peers": [16, 64, 256, 1024],
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


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Routed hops per DHT-lookup, per phase, across every substrate."""
    params = scale_params(_SCALES, scale)
    xs = [float(n) for n in params["n_peers"]]

    shared = {"scale": scale, "seed": seed, "theta_split": _THETA, **params}
    hop_series: dict[str, list[Series]] = {phase: [] for phase in _PHASES}
    reference_cost: dict = {}
    for substrate in registry.names():
        hops = [
            phase_hops(substrate, n_peers, shared, seed, reference_cost)
            for n_peers in params["n_peers"]
        ]
        for phase in _PHASES:
            hop_series[phase].append(
                Series(substrate, list(xs), [point[phase] for point in hops])
            )

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
