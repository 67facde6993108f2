"""E19 — translating parallel steps into simulated wall latency.

The paper measures latency in *parallel steps of DHT-lookups* precisely
because wall time depends on the deployment (footnote 5).  This
extension closes that gap for a concrete deployment model: each
DHT-lookup costs (overlay hops) x (per-hop latency drawn from the
lognormal wide-area model in :mod:`repro.sim.network`), and a query's
wall latency is the sum over its critical path — ``parallel_steps``
sequential lookups.

Outputs the latency distribution (median / p95) per range-query
algorithm, showing the step-count ordering of Fig. 10 carries over to
seconds under a realistic RTT model.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import IndexConfig
from repro.experiments.common import (
    ExperimentResult,
    Series,
    scale_params,
    trial_rng,
)
from repro.experiments.range_perf import range_algorithms
from repro.sim.network import LatencyModel
from repro.workloads.datasets import make_keys
from repro.workloads.queries import span_ranges

__all__ = ["run"]

_SCALES = {
    "ci": {"size": 1 << 12, "n_queries": 60, "n_peers": 256},
    "paper": {"size": 1 << 15, "n_queries": 200, "n_peers": 1024},
}

_THETA = 100
_SPAN = 0.05


def _query_wall_latency(
    steps: int,
    hops_per_lookup: int,
    model: LatencyModel,
    rng: np.random.Generator,
) -> float:
    """Critical-path wall latency: ``steps`` sequential DHT-lookups, each
    ``hops_per_lookup`` sequential message hops."""
    return sum(
        model.sample(rng) for _ in range(steps * hops_per_lookup)
    )


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Simulated wall-latency distributions for the three algorithms."""
    params = scale_params(_SCALES, scale)
    config = IndexConfig(theta_split=_THETA, max_depth=20)
    model = LatencyModel(median=0.05, sigma=0.4)
    hops = max(1, math.ceil(math.log2(params["n_peers"])) // 2)

    rng = trial_rng(seed, "latency-study", 0)
    keys = make_keys("uniform", params["size"], rng)
    runners = range_algorithms(config, keys, 0)

    queries = span_ranges(params["n_queries"], _SPAN, rng)
    medians: dict[str, float] = {}
    p95s: dict[str, float] = {}
    for name, runner in runners.items():
        latencies = []
        for query in queries:
            steps = runner(query.lo, query.hi).parallel_steps
            latencies.append(_query_wall_latency(steps, hops, model, rng))
        medians[name] = float(np.median(latencies))
        p95s[name] = float(np.percentile(latencies, 95))

    labels = list(runners)
    xs = [float(i) for i in range(len(labels))]
    return [
        ExperimentResult(
            experiment_id="E19",
            title="Simulated wall latency of range queries (extension)",
            x_label=f"algorithm index {list(enumerate(labels))}",
            y_label="seconds (simulated lognormal WAN)",
            params={
                "scale": scale,
                "seed": seed,
                "theta_split": _THETA,
                "span": _SPAN,
                "hops_per_lookup": hops,
                **params,
            },
            series=[
                Series("median", xs, [medians[l] for l in labels]),
                Series("p95", xs, [p95s[l] for l in labels]),
            ],
            notes="expect the Fig. 10 ordering to persist in seconds: "
            "lht < pht-par << pht-seq",
        )
    ]
