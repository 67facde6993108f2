"""E16 — lookup ablation: name-class collapse vs binary search.

LHT's lookup saving over PHT (Fig. 8) has two ingredients: the naming
function collapses the candidate set from ``D`` prefix lengths to
``≈ D/2`` name classes, and a binary search runs over the collapsed set.
This ablation measures all four combinations across data sizes:

* ``lht-binary`` — Alg. 2 as published (collapse + search);
* ``lht-linear`` — collapse only (descend one name class per probe);
* ``pht-binary`` — search only (PHT's published lookup);
* ``pht-linear`` — neither (top-down trie descent).
"""

from __future__ import annotations

from repro.core.config import IndexConfig
from repro.core.lookup import lht_lookup, lht_lookup_linear
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
    "paper": {"exps": (10, 17), "trials": 5, "n_lookups": 1000},
}

_THETA = 100
_MAX_DEPTH = 20


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Probe counts for the four lookup variants across data sizes."""
    params = scale_params(_SCALES, scale)
    config = IndexConfig(theta_split=_THETA, max_depth=_MAX_DEPTH)

    def measure(size, trial, rng):
        keys = make_keys("uniform", size, rng)
        lht = build_index("lht", LocalDHT(64, trial), config, keys)
        pht = build_index("pht", LocalDHT(64, trial), config, keys)
        probes = [float(p) for p in lookup_keys(params["n_lookups"], rng)]
        variants = {
            "lht-binary": lambda p: lht_lookup(lht.dht, config, p),
            "lht-linear": lambda p: lht_lookup_linear(lht.dht, config, p),
            "pht-binary": pht.lookup,
            "pht-linear": pht.lookup_linear,
        }
        return {
            name: sum(lookup(p).dht_lookups for p in probes) / len(probes)
            for name, lookup in variants.items()
        }

    curves = sweep(
        seed,
        lambda size: f"ablation:{size}",
        powers_of_two(*params["exps"]),
        params["trials"],
        measure,
    )
    return [
        ExperimentResult(
            experiment_id="E16",
            title="Lookup ablation: name-class collapse vs binary search",
            x_label="data size",
            y_label="DHT-lookups per index lookup",
            params={
                "scale": scale,
                "seed": seed,
                "theta_split": _THETA,
                "max_depth": _MAX_DEPTH,
                **params,
            },
            # Published as bare means: the curves carry no error bars.
            series=[Series(name, c.x, c.y) for name, c in curves.items()],
            notes=(
                "expect lht-binary < pht-binary and each binary variant "
                "below its linear counterpart"
            ),
        )
    ]
