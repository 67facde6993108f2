"""E11 — maintenance saving ratio vs γ (paper §8.2, Eq. 3).

The analytic saving ratio ``1 - Ψ_LHT/Ψ_PHT = (γ/2 + 3)/(γ + 4)`` (with
``γ = θ·i/j``) ranges from 75% (small γ: lookup-dominated) to 50% (large
γ: data-dominated) — the paper's abstract claim.  This experiment plots
the analytic curve and cross-checks it against *measured* per-split costs
from a simulated build of both indexes, costed under the same (i, j)
parameterizations.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import IndexConfig
from repro.costmodel.model import LinearCostModel, saving_ratio
from repro.dht.local import LocalDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    scale_params,
    trial_rng,
)
from repro.workloads.datasets import make_keys

__all__ = ["run"]

_SCALES = {
    "ci": {"size": 1 << 12, "theta": 50},
    "paper": {"size": 1 << 16, "theta": 100},
}

_GAMMAS = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0]


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Analytic + measured saving ratio over a γ sweep."""
    params = scale_params(_SCALES, scale)
    theta = params["theta"]
    size = params["size"]
    config = IndexConfig(theta_split=theta, max_depth=24)

    rng = trial_rng(seed, "eq3", 0)
    keys = make_keys("uniform", size, rng)
    # E11 reads construction costs off the maintenance ledgers, so both
    # indexes must replay the incremental insertion algorithm.
    lht = build_index("lht", LocalDHT(n_peers=64, seed=0), config, keys, fast=False)
    pht = build_index("pht", LocalDHT(n_peers=64, seed=0), config, keys, fast=False)

    analytic: list[float] = []
    measured: list[float] = []
    for gamma_value in _GAMMAS:
        analytic.append(saving_ratio(gamma_value))
        # γ = θ·i/j; fix j = 1 and solve for i.
        model = LinearCostModel(
            record_move_cost=gamma_value / theta, lookup_cost=1.0
        )
        measured.append(model.measured_saving_ratio(lht.ledger, pht.ledger))

    dense_gamma = list(np.geomspace(0.05, 2000.0, 40))
    return [
        ExperimentResult(
            experiment_id="E11",
            title="Maintenance saving ratio vs gamma (Eq. 3)",
            x_label="gamma = theta*i/j",
            y_label="saving ratio (1 - cost_LHT/cost_PHT)",
            params={"scale": scale, "seed": seed, **params},
            series=[
                Series(
                    "analytic (Eq. 3)",
                    [float(g) for g in dense_gamma],
                    [saving_ratio(float(g)) for g in dense_gamma],
                ),
                Series("analytic @ sweep", list(_GAMMAS), analytic),
                Series("measured", list(_GAMMAS), measured),
            ],
            notes="expect all values within [0.5, 0.75]",
        )
    ]
