"""E3/E4 — cumulative maintenance cost, LHT vs PHT (paper Fig. 7, §9.2).

Progressively larger datasets are inserted into both schemes (θ=100) and
the cumulative *maintenance* traffic — the cost-model's two components —
is recorded at each size checkpoint:

* **E3 (Fig. 7a)** — moved records.  Expected shape: linear in data
  size, with LHT ≈ half of PHT (one split moves half an LHT bucket but a
  whole PHT bucket).
* **E4 (Fig. 7b)** — DHT-lookups.  Expected shape: LHT ≈ a quarter of
  PHT (1 lookup per LHT split vs 2 child puts + up to 2 link repairs).
"""

from __future__ import annotations

from repro.core.config import IndexConfig
from repro.dht.local import LocalDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    scale_params,
    summarize,
    trial_rng,
)
from repro.experiments.stats import powers_of_two
from repro.workloads.datasets import make_keys

__all__ = ["run"]

_SCALES = {
    "ci": {"exps": (9, 13), "trials": 3},
    "paper": {"exps": (10, 17), "trials": 10},
}

_THETA = 100
_DISTRIBUTIONS = ("uniform", "gaussian")
_SCHEMES = ("lht", "pht")


def _maintenance_curves(
    scheme: str,
    distribution: str,
    checkpoints: list[int],
    trials: int,
    seed: int,
) -> dict[str, Series]:
    """Cumulative ``moved`` records and ``lookups`` of one scheme's growth."""
    config = IndexConfig(theta_split=_THETA, max_depth=24)
    per_trial: list[list[dict[str, float]]] = []
    for trial in range(trials):
        rng = trial_rng(seed, f"fig7:{scheme}:{distribution}", trial)
        keys = make_keys(distribution, checkpoints[-1], rng)
        index = build_index(
            scheme, LocalDHT(n_peers=64, seed=trial), config, keys[:0]
        )
        start = 0
        row = []
        for size in checkpoints:
            # Maintenance costs come from the ledger, so each
            # increment replays the incremental algorithm.
            index.bulk_load(float(k) for k in keys[start:size])
            start = size
            row.append(
                {
                    "moved": index.ledger.maintenance_records_moved,
                    "lookups": index.ledger.maintenance_lookups,
                }
            )
        per_trial.append(row)
    curves = summarize(checkpoints, zip(*per_trial))
    for curve in curves.values():
        curve.label = f"{scheme}/{distribution}"
    return curves


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Run both Fig. 7 panels; returns [E3 (moved records), E4 (lookups)]."""
    params = scale_params(_SCALES, scale)
    checkpoints = powers_of_two(*params["exps"])
    curves = [
        _maintenance_curves(
            scheme, distribution, checkpoints, params["trials"], seed
        )
        for scheme in _SCHEMES
        for distribution in _DISTRIBUTIONS
    ]
    moved_series = [curve["moved"] for curve in curves]
    lookup_series = [curve["lookups"] for curve in curves]

    common = {"scale": scale, "seed": seed, "theta_split": _THETA, **params}
    return [
        ExperimentResult(
            experiment_id="E3",
            title="Cumulative maintenance data movement (Fig. 7a)",
            x_label="data size",
            y_label="moved records",
            params=common,
            series=moved_series,
            notes="expect LHT ~ 0.5x PHT",
        ),
        ExperimentResult(
            experiment_id="E4",
            title="Cumulative maintenance DHT-lookups (Fig. 7b)",
            x_label="data size",
            y_label="maintenance DHT-lookups",
            params=common,
            series=lookup_series,
            notes="expect LHT ~ 0.25x PHT",
        ),
    ]
