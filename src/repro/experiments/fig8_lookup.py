"""E5/E6 — lookup performance, LHT vs PHT (paper Fig. 8, §9.3).

With ``D = 20`` fixed a priori, both indexes are built at each data size
and probed with uniformly distributed lookup keys; the average number of
DHT-lookups per index lookup is reported.

Expected shape: both curves fluctuate with data size (the binary search
resolves in fewer probes when the tree depth happens to align with the
search pivots — the paper's "valley points"), with LHT below PHT by
roughly 20% (uniform) / 30% (gaussian), because LHT's search runs over
the ``≈ D/2`` distinct *name classes* rather than all ``D`` prefix
lengths.
"""

from __future__ import annotations

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
from repro.workloads.queries import lookup_keys

__all__ = ["run"]

_SCALES = {
    "ci": {"exps": (8, 13), "trials": 3, "n_lookups": 200},
    "paper": {"exps": (8, 17), "trials": 10, "n_lookups": 1000},
}

_THETA = 100
_MAX_DEPTH = 20  # the paper's a-priori D


def _lookup_cost(
    scheme: str, distribution: str, sizes: list[int], params: dict, seed: int
) -> Series:
    """One scheme's mean DHT-lookups per index lookup across data sizes."""
    config = IndexConfig(theta_split=_THETA, max_depth=_MAX_DEPTH)

    def measure(size, trial, rng):
        keys = make_keys(distribution, size, rng)
        dht = LocalDHT(n_peers=64, seed=trial)
        index = build_index(scheme, dht, config, keys)
        probes = lookup_keys(params["n_lookups"], rng)
        total = 0
        for probe in probes:
            total += index.lookup(float(probe)).dht_lookups
        return {scheme: total / len(probes)}

    return sweep(
        seed,
        lambda size: f"fig8:{scheme}:{distribution}:{size}",
        sizes,
        params["trials"],
        measure,
    )[scheme]


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Run both Fig. 8 panels; returns [E5 (uniform), E6 (gaussian)]."""
    params = scale_params(_SCALES, scale)
    sizes = powers_of_two(*params["exps"])

    results: list[ExperimentResult] = []
    for exp_id, distribution in (("E5", "uniform"), ("E6", "gaussian")):
        series = [
            _lookup_cost(scheme, distribution, sizes, params, seed)
            for scheme in ("lht", "pht")
        ]
        lht_mean = sum(series[0].y) / len(series[0].y)
        pht_mean = sum(series[1].y) / len(series[1].y)
        results.append(
            ExperimentResult(
                experiment_id=exp_id,
                title=(
                    f"Lookup cost vs data size, {distribution} data "
                    f"(Fig. 8{'a' if distribution == 'uniform' else 'b'})"
                ),
                x_label="data size",
                y_label="DHT-lookups per index lookup",
                params={
                    "scale": scale,
                    "seed": seed,
                    "theta_split": _THETA,
                    "max_depth": _MAX_DEPTH,
                    **params,
                },
                series=series,
                notes=(
                    f"mean saving ratio: "
                    f"{1 - lht_mean / pht_mean:.1%} (LHT vs PHT)"
                ),
            )
        )
    return results
