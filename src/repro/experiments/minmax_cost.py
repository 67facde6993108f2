"""E12 — min/max query cost (paper §7, Theorem 3).

LHT answers min/max in one DHT-lookup regardless of index size, because
the naming function pins the leftmost leaf under ``#`` and the rightmost
under ``#0``.  PHT, lacking such a shortcut, descends the trie edge (one
lookup per level).  This experiment sweeps data size and reports both
schemes' measured lookup counts, plus correctness against the oracle.
"""

from __future__ import annotations

from repro.core.config import IndexConfig
from repro.dht.local import LocalDHT
from repro.errors import ReproError
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    count_query_time,
    scale_params,
    sweep,
)
from repro.experiments.stats import powers_of_two
from repro.workloads.datasets import make_keys

__all__ = ["run"]

_SCALES = {
    "ci": {"exps": (8, 13), "trials": 3},
    "paper": {"exps": (10, 17), "trials": 10},
}

_THETA = 100


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Measure min/max query cost for LHT vs PHT across data sizes."""
    params = scale_params(_SCALES, scale)
    config = IndexConfig(theta_split=_THETA, max_depth=24)

    def measure(size, trial, rng):
        keys = make_keys("uniform", size, rng)
        true_min, true_max = float(keys.min()), float(keys.max())

        lht = build_index("lht", LocalDHT(64, trial), config, keys)
        with count_query_time():
            mn = lht.min_query()
            mx = lht.max_query()
        if mn.record.key != true_min or mx.record.key != true_max:
            raise ReproError("LHT min/max answer mismatch")

        pht = build_index("pht", LocalDHT(64, trial), config, keys)
        with count_query_time():
            pmn, pmn_cost = pht.min_query()
            pmx, pmx_cost = pht.max_query()
        if pmn.key != true_min or pmx.key != true_max:
            raise ReproError("PHT min/max answer mismatch")
        return {
            "lht-min": mn.dht_lookups,
            "lht-max": mx.dht_lookups,
            "pht-min": pmn_cost,
            "pht-max": pmx_cost,
        }

    curves = sweep(
        seed,
        lambda size: f"minmax:{size}",
        powers_of_two(*params["exps"]),
        params["trials"],
        measure,
    )
    return [
        ExperimentResult(
            experiment_id="E12",
            title="Min/max query cost vs data size (Theorem 3)",
            x_label="data size",
            y_label="DHT-lookups per query",
            params={"scale": scale, "seed": seed, "theta_split": _THETA, **params},
            # Published as bare means: the curves carry no error bars.
            series=[Series(name, c.x, c.y) for name, c in curves.items()],
            notes="expect LHT constant at 1; PHT grows with trie depth",
        )
    ]
