"""E22 — availability vs retry budget under a lossy substrate (extension).

The paper's algorithms read failed DHT-gets structurally (Alg. 2), so a
network that drops replies silently converts *present* keys into apparent
misses.  This experiment quantifies the recovery the resilience layer
buys: a seeded exact-match workload runs against a ``ResilientDHT`` over
a ``FaultyDHT`` over a local substrate, sweeping reply drop rate × retry
attempt budget.

Reported per cell:

* **success rate** — fraction of probes for keys *known to be stored*
  that return PRESENT (a false ABSENT or UNREACHABLE is a failure);
* **lookup-cost inflation** — routed gets per probe relative to the
  fault-free budget-1 baseline: what the extra availability costs.

The analytic prediction is simple and checkable: a probe's lookup makes
≈``ceil(log2(leaves))`` gets, each surviving with probability
``1 - p^k`` for drop rate ``p`` and ``k`` attempts — so at p=0.2 a
single-attempt workload loses a double-digit fraction of probes while
k=5 loses ≈``1 - (1 - 0.2^5)^gets`` ≈ 0.1%.
"""

from __future__ import annotations

from repro.core.config import IndexConfig
from repro.dht.faulty import FaultyDHT
from repro.dht.local import LocalDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    probe_stored,
    scale_params,
    trial_rng,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.wrapper import ResilientDHT
from repro.sim.rng import derive_seed
from repro.workloads.datasets import make_keys

__all__ = ["run"]

_SCALES = {
    "ci": {"n_peers": 16, "size": 1 << 9, "probes": 150},
    "paper": {"n_peers": 64, "size": 1 << 12, "probes": 1000},
}

_DROP_RATES = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5]
_BUDGETS = [1, 2, 3, 5]
_THETA = 16


def _run_cell(
    drop_rate: float,
    budget: int,
    params: dict,
    seed: int,
) -> tuple[float, float]:
    """One (drop rate, retry budget) cell → (success rate, gets/probe)."""
    rng = trial_rng(seed, f"avail:{drop_rate}:{budget}", 0)
    faulty = FaultyDHT(
        LocalDHT(n_peers=params["n_peers"], seed=derive_seed(seed, "sub")),
        seed=derive_seed(seed, f"faults:{drop_rate}:{budget}"),
    )
    dht = ResilientDHT(
        faulty,
        policy=RetryPolicy(max_attempts=budget),
        seed=derive_seed(seed, f"retries:{drop_rate}:{budget}"),
    )
    keys = make_keys("uniform", params["size"], rng)
    index = build_index("lht", dht, IndexConfig(theta_split=_THETA), keys)

    # Faults start only once the index is built: every probed key is
    # genuinely stored, so any non-PRESENT outcome is a failure.
    faulty.get_drop_rate = drop_rate
    sample = rng.choice(keys, size=min(params["probes"], len(keys)), replace=False)
    hits, spent = probe_stored(index, sample)
    return hits / len(sample), spent.gets / len(sample)


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Success rate and cost inflation across drop rate × retry budget."""
    params = scale_params(_SCALES, scale)

    success: dict[int, list[float]] = {b: [] for b in _BUDGETS}
    cost: dict[int, list[float]] = {b: [] for b in _BUDGETS}
    for budget in _BUDGETS:
        for drop_rate in _DROP_RATES:
            rate, gets = _run_cell(drop_rate, budget, params, seed)
            success[budget].append(rate)
            cost[budget].append(gets)

    # Inflation is relative to the fault-free single-attempt baseline —
    # the first cell of budget 1 (drop rate 0.0).
    baseline = cost[1][0]
    xs = list(_DROP_RATES)
    shared = {"scale": scale, "seed": seed, "theta_split": _THETA, **params}
    return [
        ExperimentResult(
            experiment_id="E22",
            title="Exact-match availability vs retry budget (extension)",
            x_label="get drop rate",
            y_label="success rate",
            params={**shared, "budgets": _BUDGETS},
            series=[
                Series(f"attempts={b}", xs, success[b]) for b in _BUDGETS
            ],
            notes=(
                "probes target keys known stored; non-PRESENT = failure. "
                "Prediction: per-probe success ~ (1 - p^k)^gets"
            ),
        ),
        ExperimentResult(
            experiment_id="E22b",
            title="Lookup-cost inflation vs retry budget (extension)",
            x_label="get drop rate",
            y_label="routed gets per probe / fault-free baseline",
            params={**shared, "budgets": _BUDGETS, "baseline_gets": baseline},
            series=[
                Series(f"attempts={b}", xs, [g / baseline for g in cost[b]])
                for b in _BUDGETS
            ],
            notes="every retry attempt is charged at the substrate",
        ),
    ]
