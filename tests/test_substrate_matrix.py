"""The LHT correctness battery over every substrate and wrapper stack.

One parametrized suite, many backends: every overlay enrolled in
``repro.dht.registry``, and composed wrapper stacks (serialization over
replication over Chord, fault-free wrapper chains, access logging, the
lossy ``deploy-local`` deployment stack of the determinism gate).
This is the breadth test for the paper's "adaptable to any DHT
substrate" claim — and for the wrappers' claim of transparency.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndexConfig, IndexInspector, LHTIndex
from repro.devtools.determinism import SUBSTRATES as GATE_STACKS
from repro.dht import registry

#: Backend id -> :func:`repro.dht.registry.stack` spec.
BACKENDS = {
    **{name: name for name in registry.names()},
    "deploy-local": GATE_STACKS["deploy-local"],
    "serializing(local)": "serializing/local",
    "replicated(chord)": "replicated:2/chord",
    "faulty-0(local)": "faulty:0/local",
    "logging(local)": "accesslog/local",
    "serializing(replicated(chord))": "serializing/replicated:2/chord",
}


def build(name: str):
    return registry.stack(BACKENDS[name], 16, 0)


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request):
    return build(request.param)


@pytest.fixture(scope="module")
def keys() -> list[float]:
    return [float(k) for k in np.random.default_rng(7).random(400)]


class TestMatrix:
    def test_full_battery(self, backend, keys):
        config = IndexConfig(theta_split=10, max_depth=20, merge_enabled=True)
        index = LHTIndex(backend, config)
        for key in keys:
            index.insert(key)

        # structural integrity
        IndexInspector(backend).verify()

        # exact match
        for key in keys[:40]:
            record, _ = index.exact_match(key)
            assert record is not None and record.key == key

        # range queries
        for lo, hi in ((0.0, 0.2), (0.3, 0.65), (0.9, 1.0)):
            expect = sorted(k for k in keys if lo <= k < hi)
            assert index.range_query(lo, hi).keys == expect

        # min/max in one lookup
        assert index.min_query().record.key == min(keys)
        assert index.max_query().record.key == max(keys)

        # scan and kNN
        assert [r.key for r in index.scan()] == sorted(keys)
        nearest = index.knn_query(0.5, 3)
        expect_nn = sorted(keys, key=lambda k: (abs(k - 0.5), k))[:3]
        assert [r.key for r in nearest.records] == expect_nn

        # deletion with merges
        for key in keys[:200]:
            assert index.delete(key).deleted
        IndexInspector(backend).verify()
        assert index.range_query(0.0, 1.0).keys == sorted(keys[200:])

    def test_index_costs_identical_everywhere(self, keys):
        """The same workload yields identical index-level counters on
        every backend — the strongest form of footnote 5."""
        ledgers = []
        lookup_costs = []
        for name in sorted(BACKENDS):
            index = LHTIndex(
                build(name), IndexConfig(theta_split=10, max_depth=20)
            )
            for key in keys:
                index.insert(key)
            ledgers.append(
                (
                    index.ledger.maintenance_lookups,
                    index.ledger.maintenance_records_moved,
                    index.ledger.split_count,
                )
            )
            lookup_costs.append(
                [index.lookup(k).dht_lookups for k in keys[:50]]
            )
        assert all(l == ledgers[0] for l in ledgers[1:])
        assert all(c == lookup_costs[0] for c in lookup_costs[1:])
