"""Tests for generated request traces, their serial replay, and access
logging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pht import PHTIndex
from repro.core import IndexConfig, IndexInspector, LHTIndex
from repro.core.bucket import Record
from repro.dht import AccessLoggingDHT, LocalDHT
from repro.errors import ConfigurationError
from repro.serve import serial_answer
from repro.workloads import Request, RequestKind, generate_trace


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestTraceGeneration:
    def test_length_and_counts(self):
        trace = generate_trace(500, _rng())
        assert len(trace) == 500
        kinds = [request.kind for request in trace]
        assert kinds.count(RequestKind.INSERT) > kinds.count(RequestKind.REMOVE)

    def test_deletes_target_live_keys(self):
        trace = generate_trace(400, _rng(1))
        live: set[float] = set()
        for request in trace:
            if request.kind is RequestKind.INSERT:
                live.add(request.key)
            elif request.kind is RequestKind.REMOVE:
                assert request.key in live
                live.discard(request.key)

    def test_range_ops_have_bounds(self):
        trace = generate_trace(
            300, _rng(2), mix={RequestKind.RANGE: 1.0}, range_span=0.1
        )
        for request in trace:
            # with no live keys, forced inserts can appear; ranges must
            # carry a valid hi bound
            if request.kind is RequestKind.RANGE:
                assert request.hi is not None
                assert request.hi - request.key == pytest.approx(0.1)

    def test_deterministic(self):
        a = generate_trace(100, _rng(3))
        b = generate_trace(100, _rng(3))
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_trace(-1, _rng())
        with pytest.raises(ConfigurationError):
            generate_trace(10, _rng(), mix={RequestKind.INSERT: 0.0})


class TestReplay:
    def test_replay_against_lht_and_pht(self):
        trace = generate_trace(800, _rng(4))
        lht = LHTIndex(
            LocalDHT(16, 0),
            IndexConfig(theta_split=8, max_depth=24, merge_enabled=True),
        )
        pht = PHTIndex(LocalDHT(16, 0), IndexConfig(theta_split=8, max_depth=24))
        for request in trace:
            # both schemes give the same plain answer to every request
            # but an insert's (their trees split differently)
            lht_answer = serial_answer(lht, request)
            pht_answer = serial_answer(pht, request)
            if request.kind is not RequestKind.INSERT:
                assert lht_answer == pht_answer
        # both indexes end with the same record count
        assert len(lht) == len(pht)
        # distributed state stays consistent after the mixed workload
        IndexInspector(lht.dht).verify()
        # the paper's maintenance advantage persists under deletion
        if pht.ledger.maintenance_lookups:
            ratio = lht.ledger.maintenance_lookups / pht.ledger.maintenance_lookups
            assert ratio < 0.5

    def test_serial_answers_per_kind(self):
        index = LHTIndex(LocalDHT(8, 0), IndexConfig(theta_split=8))
        answers = [
            serial_answer(index, request)
            for request in (
                Request(RequestKind.INSERT, 0.5, value="v"),
                Request(RequestKind.LOOKUP, 0.5),
                Request(RequestKind.RANGE, 0.2, hi=0.8),
                Request(RequestKind.REMOVE, 0.5),
                Request(RequestKind.REMOVE, 0.5),
                Request(RequestKind.LOOKUP, 0.5),
            )
        ]
        assert answers == [
            "0",  # the one leaf's bits: LHT's tree starts at #0
            Record(0.5, "v"),
            (Record(0.5, "v"),),
            True,
            False,
            None,
        ]


class TestAccessLogging:
    def test_counts_routed_ops(self):
        dht = AccessLoggingDHT(LocalDHT(16, 0))
        dht.put("a", 1)
        dht.get("a")
        dht.get("a")
        dht.remove("a")
        assert dht.key_accesses["a"] == 4
        assert dht.hottest_keys(1) == [("a", 4)]

    def test_peek_not_logged(self):
        dht = AccessLoggingDHT(LocalDHT(16, 0))
        dht.put("a", 1)
        dht.peek("a")
        assert dht.key_accesses["a"] == 1

    def test_peer_accesses_sum(self):
        dht = AccessLoggingDHT(LocalDHT(16, 0))
        for i in range(20):
            dht.put(f"k{i}", i)
        assert sum(dht.peer_accesses().values()) == 20

    def test_reset(self):
        dht = AccessLoggingDHT(LocalDHT(16, 0))
        dht.put("a", 1)
        dht.reset_log()
        assert not dht.key_accesses

    def test_lht_hot_keys_are_structural(self):
        """Min/max traffic concentrates on '#' and '#0' — the E21 story."""
        dht = AccessLoggingDHT(LocalDHT(32, 0))
        index = LHTIndex(dht, IndexConfig(theta_split=8, max_depth=20))
        for key in np.random.default_rng(5).random(500):
            index.insert(float(key))
        dht.reset_log()
        for _ in range(25):
            index.min_query()
            index.max_query()
        hot = dict(dht.hottest_keys(2))
        assert hot.get("#") == 25
        assert hot.get("#0") == 25


class TestNewExperiments:
    def test_churn_workload(self):
        from repro.experiments import churn_workload

        (result,) = churn_workload.run("ci", seed=0)
        lht = result.series_by_label("lht")
        pht = result.series_by_label("pht")
        assert lht.y[0] < pht.y[0]  # maintenance lookups
        assert lht.y[1] < pht.y[1]  # records moved

    def test_hotspots(self):
        from repro.experiments import hotspots

        (result,) = hotspots.run("ci", seed=0)
        series = result.series_by_label("lht")
        peer_gini, key_gini, hottest_share = series.y
        assert 0.0 <= peer_gini <= 1.0
        assert 0.0 <= key_gini <= 1.0
        assert 0.0 < hottest_share < 0.5
        assert "#" in result.notes

    def test_ablation_experiment(self):
        from repro.experiments import ablation_lookup

        (result,) = ablation_lookup.run("ci", seed=0)
        binary = result.series_by_label("lht-binary")
        linear = result.series_by_label("lht-linear")
        pht_binary = result.series_by_label("pht-binary")
        assert sum(binary.y) < sum(linear.y)
        assert sum(binary.y) < sum(pht_binary.y)
