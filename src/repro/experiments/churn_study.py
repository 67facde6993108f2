"""E14 — index availability under peer churn (extension).

The paper motivates low-maintenance indexing with P2P peer dynamism but
evaluates on a stable LAN; this extension quantifies how an LHT over a
*churning* Chord ring behaves.  A Poisson join/leave process runs for a
simulated period (stabilization interleaved); afterwards we measure:

* ring integrity (successor cycle covers all peers);
* fraction of previously inserted keys still retrievable by exact-match;
* fraction of range queries that complete successfully.

With graceful departures the DHT hands keys to successors, so
availability should stay at 100%; crashes lose the buckets stored on the
failed peers (the substrate stores single replicas, like the paper's
deployment), so availability degrades roughly with the fraction of
crashed peers — quantifying how much replication a deployment would need.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht.chord import ChordDHT
from repro.dht.churn import ChurnConfig, ChurnDriver
from repro.errors import ReproError
from repro.experiments.common import (
    ExperimentResult,
    Series,
    scale_params,
    trial_rng,
)
from repro.sim.events import Simulator
from repro.workloads.datasets import make_keys
from repro.workloads.queries import span_ranges

__all__ = ["run"]

_SCALES = {
    "ci": {"n_peers": 32, "size": 1 << 10, "duration": 30.0, "probes": 200},
    "paper": {"n_peers": 128, "size": 1 << 13, "duration": 120.0, "probes": 1000},
}

_CRASH_FRACTIONS = [0.0, 0.25, 0.5, 1.0]
_THETA = 20


def _availability(
    index: LHTIndex, keys: np.ndarray, probes: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(exact-match availability, range-query success rate) after churn."""
    sample = rng.choice(keys, size=min(probes, len(keys)), replace=False)
    hits = 0
    for key in sample:
        try:
            record, _ = index.exact_match(float(key))
        except ReproError:
            continue
        if record is not None:
            hits += 1
    exact_rate = hits / len(sample)

    queries = span_ranges(20, 0.05, rng)
    ok = 0
    for query in queries:
        try:
            index.range_query(query.lo, query.hi)
        except ReproError:
            continue
        ok += 1
    return exact_rate, ok / len(queries)


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Availability vs crash fraction under a fixed churn intensity."""
    params = scale_params(_SCALES, scale)
    config = IndexConfig(theta_split=_THETA, max_depth=20)

    exact_rates: list[float] = []
    range_rates: list[float] = []
    crash_peers: list[float] = []
    for crash_fraction in _CRASH_FRACTIONS:
        rng = trial_rng(seed, f"churn:{crash_fraction}", 0)
        dht = ChordDHT(n_peers=params["n_peers"], seed=seed)
        index = LHTIndex(dht, config)
        keys = make_keys("uniform", params["size"], rng)
        for k in keys:
            index.insert(float(k))

        simulator = Simulator()
        driver = ChurnDriver(
            dht,
            simulator,
            rng,
            ChurnConfig(
                join_rate=0.5,
                leave_rate=0.5,
                crash_fraction=crash_fraction,
                stabilize_period=1.0,
                min_peers=8,
            ),
        )
        driver.start(until=params["duration"])
        simulator.run_until(params["duration"])
        dht.check_ring()  # ring integrity must survive every setting

        exact_rate, range_rate = _availability(
            index, keys, params["probes"], rng
        )
        exact_rates.append(exact_rate)
        range_rates.append(range_rate)
        crash_peers.append(driver.crashes)

    xs = list(_CRASH_FRACTIONS)
    return [
        ExperimentResult(
            experiment_id="E14",
            title="Index availability under churn (extension)",
            x_label="crash fraction of departures",
            y_label="success rate",
            params={"scale": scale, "seed": seed, "theta_split": _THETA, **params},
            series=[
                Series("exact-match availability", xs, exact_rates),
                Series("range-query success", xs, range_rates),
                Series("crashed peers", xs, crash_peers),
            ],
            notes=(
                "graceful-only churn (x=0) must stay at 1.0; crashes lose "
                "single-replica buckets"
            ),
        )
    ]
