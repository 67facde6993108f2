"""E15 — storage load balance across peers (extension).

The paper's §1 lists load balance as a DHT advantage that naive
locality-preserving designs sacrifice.  LHT keeps it: leaf buckets are
named by tree labels and placed by uniform hashing, so bucket placement is
uniform even for skewed *data*.  This experiment measures the per-peer
record-count distribution (Gini coefficient and max/mean ratio) for LHT
vs the raw DHT, under uniform and gaussian data.
"""

from __future__ import annotations

from repro.baselines.naive import NaiveIndex
from repro.baselines.orderpreserving import OrderPreservingIndex
from repro.core.config import IndexConfig
from repro.core.stats import IndexInspector
from repro.dht.local import LocalDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    scale_params,
    trial_rng,
)
from repro.experiments.stats import gini_coefficient
from repro.workloads.datasets import make_keys

__all__ = ["run"]

_SCALES = {
    "ci": {"n_peers": 128, "size": 1 << 12},
    "paper": {"n_peers": 512, "size": 1 << 16},
}

_THETA = 100
_DISTRIBUTIONS = ("uniform", "gaussian", "pareto")


def _record_loads_lht(dht: LocalDHT) -> list[int]:
    """Per-peer record counts for an LHT (records, not bucket counts)."""
    loads: dict[int, int] = {}
    inspector = IndexInspector(dht)
    for storage_label, bucket in inspector.buckets().items():
        peer = dht.peer_of(str(storage_label))
        loads[peer] = loads.get(peer, 0) + len(bucket)
    all_peers = dht.peer_loads()
    return [loads.get(peer, 0) for peer in all_peers]


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Gini coefficient of per-peer storage, LHT vs raw DHT."""
    params = scale_params(_SCALES, scale)
    config = IndexConfig(theta_split=_THETA, max_depth=24)

    schemes = ("lht", "raw-dht", "order-preserving")
    gini: dict[str, list[float]] = {s: [] for s in schemes}
    xs = list(range(len(_DISTRIBUTIONS)))
    for distribution in _DISTRIBUTIONS:
        rng = trial_rng(seed, f"balance:{distribution}", 0)
        keys = make_keys(distribution, params["size"], rng)

        dht = LocalDHT(n_peers=params["n_peers"], seed=seed)
        build_index("lht", dht, config, keys)
        gini["lht"].append(gini_coefficient(_record_loads_lht(dht)))

        raw_dht = LocalDHT(n_peers=params["n_peers"], seed=seed)
        naive = NaiveIndex(raw_dht)
        for k in keys:
            naive.insert(float(k))
        gini["raw-dht"].append(
            gini_coefficient(list(raw_dht.peer_loads().values()))
        )

        # The §2 alternative: locality-sensitive placement ranges well
        # but inherits the data's skew.
        ordered = OrderPreservingIndex(n_peers=params["n_peers"])
        for k in keys:
            ordered.insert(float(k))
        gini["order-preserving"].append(
            gini_coefficient(list(ordered.peer_loads().values()))
        )

    return [
        ExperimentResult(
            experiment_id="E15",
            title="Per-peer storage balance (extension)",
            x_label=f"distribution index {list(enumerate(_DISTRIBUTIONS))}",
            y_label="Gini coefficient of per-peer record counts",
            params={"scale": scale, "seed": seed, "theta_split": _THETA, **params},
            series=[
                Series(scheme, [float(x) for x in xs], values)
                for scheme, values in gini.items()
            ],
            notes=(
                "LHT places whole buckets, so its Gini reflects bucket "
                "granularity (high when buckets << peers) but is "
                "independent of data skew: compare LHT across the three "
                "distributions"
            ),
        )
    ]
