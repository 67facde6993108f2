"""E22 and E26 — exact-match availability under lost replies (extension).

The paper's algorithms read a failed DHT-get structurally (Alg. 2), so a
network that drops replies turns *present* keys into apparent misses;
§8.2 leaves recovering them to the DHT.  The DHT can buy them back with
retries or with replicas, and this module measures both with one cell,
:func:`~repro.experiments.common.availability_cell`, on the stack
``resilient:a/replicated:k/faulty:p/<substrate>``:

* **E22** — the retry plane: ``local``, k = 1, across the attempt budget
  a; **E22b** its routed gets per probe relative to the fault-free
  one-attempt cell (every retry is charged at the substrate).
* **E26-<substrate>** — the replica plane: a = 1 across the replication
  factor k, one result per substrate; **E26b** its routed puts per
  stored record at build (≈ k: each leaf put fans out once per holder),
  with the failover rescues per substrate in its notes.

Every cell builds the same keys and probes the same sample of them, so
any non-PRESENT outcome (a false ABSENT, UNREACHABLE) is a failure.
Prediction: a probe's lookup makes ≈ ``g = ceil(log2(leaves))`` gets,
each lost with probability ``p^a`` resp. ``p^k``, so availability is
≈ ``(1 - p^a)^g`` resp. ``(1 - p^k)^g`` — strictly increasing in a and
in k for every p > 0.  The (``local``, k = 1, a = 1) cell is measured
once and is both E22's ``attempts=1`` and E26-local's ``k=1`` series:
one attempt and one replica are pass-throughs.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter

from repro.core.config import IndexConfig
from repro.dht import registry
from repro.experiments.common import (
    AvailabilityCell,
    ExperimentResult,
    Series,
    availability_cell,
    scale_params,
    trial_rng,
)
from repro.workloads.datasets import make_keys

__all__ = ["run"]

_SCALES = {
    # One substrate, minimal shape: the CI smoke leg.
    "smoke": {"substrates": ["chord"], "n_peers": 12, "size": 1 << 7,
              "probes": 40, "drop_rates": [0.0, 0.3]},
    # ``None`` = every substrate: the registry decides the list at run time.
    "ci": {"substrates": None, "n_peers": 16, "size": 1 << 8, "probes": 400,
           "drop_rates": [0.0, 0.1, 0.3, 0.5]},
    "paper": {"substrates": None, "n_peers": 64, "size": 1 << 12,
              "probes": 1000, "drop_rates": [0.0, 0.05, 0.1, 0.2, 0.3, 0.5]},
}

_ATTEMPTS = [1, 2, 3, 5]
_KS = [1, 2, 3]
_THETA = 16


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """The retry plane (E22, E22b) and the replica plane (E26-*, E26b)."""
    params = scale_params(_SCALES, scale)
    substrates = list(params["substrates"] or registry.names())
    xs = list(params["drop_rates"])
    rng = trial_rng(seed, "availability", 0)
    keys = make_keys("uniform", params["size"], rng)
    sample = rng.choice(keys, size=min(params["probes"], len(keys)), replace=False)
    config = IndexConfig(theta_split=_THETA)

    @cache
    def plane(substrate: str, k: int, attempts: int) -> list[AvailabilityCell]:
        n_peers = params["n_peers"]
        return [
            availability_cell(substrate, k, attempts, p, n_peers, seed, config,
                              keys, sample)
            for p in xs
        ]

    def curves(
        rows: dict[str, list[AvailabilityCell]], y=attrgetter("availability")
    ) -> list[Series]:
        return [Series(label, xs, [y(c) for c in row]) for label, row in rows.items()]

    def replicas(substrate: str) -> dict[str, list[AvailabilityCell]]:
        return {f"k={k}": plane(substrate, k, 1) for k in _KS}

    retry = {f"attempts={a}": plane("local", 1, a) for a in _ATTEMPTS}
    baseline = retry["attempts=1"][0].probes.gets  # fault-free, one attempt
    shared = {"scale": scale, "seed": seed, "theta_split": _THETA, **params}
    results = [
        ExperimentResult(
            experiment_id="E22",
            title="Exact-match availability vs retry budget (extension)",
            x_label="get drop rate",
            y_label="success rate",
            params={**shared, "attempts": _ATTEMPTS},
            series=curves(retry),
            notes="local, k=1; probes target keys known stored; non-PRESENT "
            "= failure. Prediction: per-probe success ~ (1 - p^a)^gets",
        ),
        ExperimentResult(
            experiment_id="E22b",
            title="Lookup-cost inflation vs retry budget (extension)",
            x_label="get drop rate",
            y_label="routed gets per probe / fault-free baseline",
            params={**shared, "attempts": _ATTEMPTS,
                    "baseline_gets": baseline / len(sample)},
            series=curves(retry, lambda cell: cell.probes.gets / baseline),
            notes="every retry attempt is charged at the substrate",
        ),
    ]
    results += [
        ExperimentResult(
            experiment_id=f"E26-{substrate}",
            title=f"Exact-match availability vs replication factor ({substrate})",
            x_label="get drop rate",
            y_label="availability (PRESENT fraction)",
            params={**shared, "ks": _KS, "substrate": substrate},
            series=curves(replicas(substrate)),
            notes="one attempt; probes target keys known stored; non-PRESENT "
            "= failure. Prediction: availability ~ (1 - p^k)^gets",
        )
        for substrate in substrates
    ]
    rescues = {
        s: [sum(c.probes.replica_failovers for c in row) for row in replicas(s).values()]
        for s in substrates
    }
    results.append(
        ExperimentResult(
            experiment_id="E26b",
            title="Replica put amplification at build",
            x_label="replication factor k",
            y_label="routed puts per stored record",
            params={**shared, "ks": _KS},
            series=[
                Series(s, [float(k) for k in _KS],
                       [row[-1].build.puts / len(keys)
                        for row in replicas(s).values()])
                for s in substrates
            ],
            notes="every leaf put fans out to k placement targets; failover "
            "rescues per substrate (summed over drop rates): "
            + ", ".join(f"{s}={rescues[s]}" for s in substrates),
        )
    )
    return results
