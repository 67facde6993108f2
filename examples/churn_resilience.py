#!/usr/bin/env python3
"""Index availability while peers churn — the problem LHT is built for.

The paper motivates low-maintenance indexing with P2P peer dynamism
(§1).  This example keeps an LHT serving queries while a Poisson
join/leave process reshapes the Chord ring underneath it, with the
overlay's stabilization protocol running in simulated time.  Two phases:

1. graceful churn — peers announce departure and hand their keys to the
   successor: availability stays at 100%;
2. crash churn — peers vanish (single-replica buckets die with them):
   the printout quantifies the loss, i.e. how much replication a real
   deployment should add.

Run:
    python examples/churn_resilience.py
"""

from __future__ import annotations

import numpy as np

from repro import ChordDHT, IndexConfig, LHTIndex
from repro.dht import ChurnConfig, ChurnDriver
from repro.errors import ReproError
from repro.sim import Simulator


def availability(index: LHTIndex, keys: np.ndarray, sample: int = 300) -> float:
    rng = np.random.default_rng(0)
    probes = rng.choice(keys, size=min(sample, len(keys)), replace=False)
    hits = 0
    for key in probes:
        try:
            record, _ = index.exact_match(float(key))
        except ReproError:
            continue
        hits += record is not None
    return hits / len(probes)


def run_phase(crash_fraction: float, label: str) -> None:
    dht = ChordDHT(n_peers=48, seed=1)
    index = LHTIndex(dht, IndexConfig(theta_split=25, max_depth=20))
    keys = np.random.default_rng(2).random(3_000)
    for key in keys:
        index.insert(float(key))

    simulator = Simulator()
    driver = ChurnDriver(
        dht,
        simulator,
        np.random.default_rng(3),
        ChurnConfig(
            join_rate=1.0,
            leave_rate=1.0,
            crash_fraction=crash_fraction,
            stabilize_period=0.5,
            min_peers=16,
        ),
    )
    print(f"--- {label} ---")
    print(f"{'sim time':>9} {'peers':>6} {'avail':>7} {'events':>22}")
    driver.start(until=60.0)
    for checkpoint in (0.0, 15.0, 30.0, 45.0, 60.0):
        simulator.run_until(checkpoint)
        avail = availability(index, keys)
        events = (
            f"{driver.joins}j/{driver.leaves}l/{driver.crashes}c"
        )
        print(f"{checkpoint:>9.0f} {dht.n_peers:>6} {avail:>6.1%} {events:>22}")
    dht.check_ring()
    print(f"ring integrity after churn: OK "
          f"({dht.keys_transferred} keys handed off)\n")


def main() -> None:
    run_phase(crash_fraction=0.0, label="graceful churn (keys handed off)")
    run_phase(crash_fraction=0.8, label="crash churn (80% of departures crash)")
    print("takeaway: the index structure needs no repair under churn — the")
    print("DHT's own stabilization suffices (paper §8.2, 'no periodical")
    print("maintenance'); only crash-lost replicas need application-level")
    print("replication, an orthogonal substrate concern.")


if __name__ == "__main__":
    main()
