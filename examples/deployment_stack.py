#!/usr/bin/env python3
"""Composing a deployment-grade stack from the substrate wrappers.

The over-DHT philosophy means production concerns compose *underneath*
the index without touching it.  This example assembles, from the one
stack spec ``"serializing/replicated:3/chord"``,

    LHT
     └─ SerializingDHT      (values cross the boundary as bytes)
         └─ ReplicatedDHT   (3 replicas per key)
             └─ ChordDHT    (routed overlay, 48 peers)

then crashes a fifth of the ring and shows the index still answering —
while the exact same LHT code, pointed at a bare CAN overlay, produces
identical index-level costs (the paper's footnote 5, live).

Run:
    python examples/deployment_stack.py
"""

from __future__ import annotations

import numpy as np

from repro import CANDHT, IndexConfig, LHTIndex
from repro.dht import registry
from repro.dht.kernel import stack_layers
from repro.errors import ReproError


def main() -> None:
    rng = np.random.default_rng(17)
    keys = [float(k) for k in rng.random(4_000)]
    config = IndexConfig(theta_split=50, max_depth=20)

    print("building the deployment stack: "
          "Serializing ∘ Replicated(3) ∘ Chord(48) ...")
    stack = registry.stack("serializing/replicated:3/chord", 48, 0)
    *_, ring = stack_layers(stack)
    index = LHTIndex(stack, config)
    for key in keys:
        index.insert(key)
    print(f"  {len(index)} records, {index.leaf_count} buckets, "
          f"{stack.bytes_written / 1e6:.1f} MB shipped as bytes\n")

    # Crash a fifth of the ring, stabilize, and query on.
    victims = ring.node_ids[::5]
    for victim in victims:
        if ring.n_peers > 16:
            ring.fail(victim)
    ring.stabilize_all(rounds=3)
    ring.check_ring()
    print(f"crashed {len(victims)} of 48 peers; ring repaired by "
          f"stabilization")

    probes = rng.choice(keys, size=400, replace=False)
    hits = 0
    for probe in probes:
        try:
            record, _ = index.exact_match(float(probe))
        except ReproError:
            continue
        hits += record is not None
    print(f"exact-match availability after the crashes: {hits / len(probes):.1%}")
    result = index.range_query(0.4, 0.45)
    print(f"range [0.40, 0.45): {len(result.records)} records, "
          f"{result.dht_lookups} DHT-lookups\n")

    # The same index code over a completely different overlay geometry.
    print("same code over CAN (2-d coordinate space, zone routing):")
    can_index = LHTIndex(CANDHT(n_peers=48, seed=0), config)
    for key in keys:
        can_index.insert(key)
    print(f"  maintenance lookups — stack: {index.ledger.maintenance_lookups}, "
          f"CAN: {can_index.ledger.maintenance_lookups} (identical: "
          f"{index.ledger.maintenance_lookups == can_index.ledger.maintenance_lookups})")
    lookup_stack = index.lookup(keys[0]).dht_lookups
    lookup_can = can_index.lookup(keys[0]).dht_lookups
    print(f"  lookup cost for the same key — stack: {lookup_stack}, "
          f"CAN: {lookup_can}")
    print("\nthe index never noticed any of it — that is the over-DHT "
          "paradigm the paper argues for.")


if __name__ == "__main__":
    main()
