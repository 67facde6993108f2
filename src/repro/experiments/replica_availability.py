"""E26 — availability vs replication factor across all substrates.

The companion to E22: where E22 buys availability with *retries* (more
attempts on the same routed path), this experiment buys it with
*replicas* (more copies on topology-derived peers, via the placement
layer).  A seeded exact-match workload runs over
``ReplicatedDHT(FaultyDHT(substrate))`` for every registered substrate,
sweeping reply drop rate × replication factor k ∈ {1, 2, 3}.

Per cell, probes target keys *known to be stored*, so any non-PRESENT
outcome is a failure:

* **availability** — fraction of probes answering PRESENT.  Analytic
  prediction: each routed get survives with probability ``1 - p^k``
  (primary drop *and* all ``k - 1`` replica probes dropped), so a
  lookup of ``g`` gets succeeds with ≈ ``(1 - p^k)^g`` — strictly
  increasing in ``k`` for every ``p > 0``, on every substrate, which
  the acceptance gate checks at p = 0.3.
* **put amplification** — routed puts per stored record during the
  build: the maintenance price of k copies (≈ k exactly, since every
  leaf put fans out once per replica holder).

One result per substrate, ``E26-<substrate>`` (results are saved under
their id, so each needs its own), plus ``E26b`` for the amplification.

The k = 1 column doubles as the placement no-op proof: the wrapper is a
pass-through, so its availability matches the unreplicated E22
budget-1 baseline at the same drop rate.
"""

from __future__ import annotations

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht import registry
from repro.dht.faulty import FaultyDHT
from repro.dht.replicated import ReplicatedDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    count_build_time,
    make_dht,
    probe_stored,
    scale_params,
    trial_rng,
)
from repro.sim.rng import derive_seed
from repro.workloads.datasets import make_keys

__all__ = ["run"]

_SCALES = {
    # One substrate, minimal shape: the CI smoke leg.
    "smoke": {
        "substrates": ["chord"],
        "n_peers": 12,
        "size": 1 << 7,
        "probes": 40,
        "drop_rates": [0.0, 0.3],
    },
    # All substrates: the registry decides the list at run time.
    "ci": {
        "substrates": None,
        "n_peers": 16,
        "size": 1 << 8,
        "probes": 400,
        "drop_rates": [0.0, 0.1, 0.3, 0.5],
    },
    "paper": {
        "substrates": None,
        "n_peers": 32,
        "size": 1 << 10,
        "probes": 400,
        "drop_rates": [0.0, 0.05, 0.1, 0.2, 0.3, 0.5],
    },
}

_KS = [1, 2, 3]
_THETA = 16


def _run_cell(
    substrate: str,
    drop_rate: float,
    k: int,
    params: dict,
    seed: int,
) -> tuple[float, float, int]:
    """(availability, puts per record at build, failovers recorded)."""
    rng = trial_rng(seed, f"replica-avail:{substrate}:{drop_rate}:{k}", 0)
    faulty = FaultyDHT(
        make_dht(substrate, params["n_peers"], derive_seed(seed, "sub")),
        seed=derive_seed(seed, f"faults:{substrate}:{drop_rate}:{k}"),
    )
    dht = ReplicatedDHT(faulty, n_replicas=k)
    index = LHTIndex(dht, IndexConfig(theta_split=_THETA))
    keys = make_keys("uniform", params["size"], rng)
    build_before = dht.metrics.snapshot()
    with count_build_time():
        index.bulk_load((float(key) for key in keys), fast=True)
    puts_per_record = (
        dht.metrics.since(build_before).puts / len(keys)
    )

    # Faults start only once the index is built: every probed key is
    # genuinely stored, so any non-PRESENT outcome is a failure.
    faulty.get_drop_rate = drop_rate
    sample = rng.choice(
        keys, size=min(params["probes"], len(keys)), replace=False
    )
    hits, spent = probe_stored(index, sample)
    return hits / len(sample), puts_per_record, spent.replica_failovers


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Availability and put amplification across substrate × p × k."""
    params = scale_params(_SCALES, scale)
    # ``None`` = every substrate: the registry decides at run time.
    substrates = list(params["substrates"] or registry.names())

    drop_rates = list(params["drop_rates"])
    shared = {
        "scale": scale,
        "seed": seed,
        "theta_split": _THETA,
        "n_peers": params["n_peers"],
        "size": params["size"],
        "probes": params["probes"],
        "ks": _KS,
    }
    results: list[ExperimentResult] = []
    amplification: dict[str, list[float]] = {s: [] for s in substrates}
    failovers: dict[str, list[float]] = {s: [] for s in substrates}
    for substrate in substrates:
        availability: dict[int, list[float]] = {}
        for k in _KS:
            cells = [
                _run_cell(substrate, drop_rate, k, params, seed)
                for drop_rate in drop_rates
            ]
            availability[k] = [rate for rate, _, _ in cells]
            amplification[substrate].append(cells[-1][1])
            failovers[substrate].append(
                float(sum(rescued for _, _, rescued in cells))
            )
        results.append(
            ExperimentResult(
                experiment_id=f"E26-{substrate}",
                title=(
                    "Exact-match availability vs replication factor "
                    f"({substrate})"
                ),
                x_label="get drop rate",
                y_label="availability (PRESENT fraction)",
                params={**shared, "substrate": substrate},
                series=[
                    Series(f"k={k}", drop_rates, availability[k])
                    for k in _KS
                ],
                notes=(
                    "probes target keys known stored; non-PRESENT = "
                    "failure. Prediction: availability ~ (1 - p^k)^gets"
                ),
            )
        )
    results.append(
        ExperimentResult(
            experiment_id="E26b",
            title="Replica put amplification at build",
            x_label="replication factor k",
            y_label="routed puts per stored record",
            params=shared,
            series=[
                Series(substrate, [float(k) for k in _KS],
                       amplification[substrate])
                for substrate in substrates
            ],
            notes=(
                "every leaf put fans out to k placement targets; "
                "failover rescues per substrate (summed over drop "
                "rates): "
                + ", ".join(
                    f"{s}={[int(v) for v in failovers[s]]}"
                    for s in substrates
                )
            ),
        )
    )
    return results
