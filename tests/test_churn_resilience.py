"""Churn + lossy-substrate integration: resilience on vs off.

The end-to-end scenario the resilience layer exists for: an LHT over a
Chord ring that keeps churning (graceful joins/leaves, so the data and
the sanitizer's partition invariant survive) while the network drops a
fraction of replies.  The same seeded probe workload runs through both
arms — raw ``FaultyDHT`` and ``ResilientDHT``-wrapped — and the wrapped
arm must strictly dominate.

The whole module is sanitizer-compatible: run it under ``LHT_SANITIZE=1``
(the CI sanitized leg does) and every mutation is re-validated against
Theorems 1-2; one test forces the sanitizer on regardless of the
environment.
"""

from __future__ import annotations

import numpy as np

from repro.core import IndexConfig, IndexInspector, LHTIndex, MatchStatus
from repro.dht import ChurnConfig, ChurnDriver, registry
from repro.dht.kernel import stack_layers
from repro.sim import Simulator
from repro.sim.rng import derive_seed

DROP_RATE = 0.2
N_KEYS = 300
DURATION = 20.0


def _run_arm(resilient: bool, seed: int = 0):
    """One churn arm; returns (index, keys, churn driver, chord)."""
    dht = registry.stack(f"{'resilient/' * resilient}faulty/chord", 24, seed)
    *_, faulty, chord = stack_layers(dht)
    index = LHTIndex(dht, IndexConfig(theta_split=10, max_depth=20))
    keys = [float(k) for k in np.random.default_rng(seed).random(N_KEYS)]
    for key in keys:  # routed inserts, still fault-free
        index.insert(key)

    sim = Simulator()
    driver = ChurnDriver(
        chord,
        sim,
        np.random.default_rng(derive_seed(seed, "churn")),
        ChurnConfig(
            join_rate=0.4,
            leave_rate=0.4,
            crash_fraction=0.0,  # graceful: single-replica data survives
            min_peers=8,
        ),
    )
    driver.start(until=DURATION)
    sim.run_until(DURATION)

    faulty.get_drop_rate = DROP_RATE  # the network turns lossy post-churn
    return index, keys, driver, chord


def _success_rate(index: LHTIndex, keys: list[float]) -> float:
    hits = sum(
        index.exact_match_checked(key).status is MatchStatus.PRESENT
        for key in keys
    )
    return hits / len(keys)


class TestChurnWithResilience:
    def test_resilience_dominates_under_churn_and_drops(self):
        with_r, keys, driver, chord = _run_arm(resilient=True)
        without_r, keys2, _, _ = _run_arm(resilient=False)
        assert keys == keys2  # same seeded workload in both arms
        assert driver.joins + driver.leaves > 0
        chord.check_ring()

        rate_on = _success_rate(with_r, keys)
        rate_off = _success_rate(without_r, keys)
        # Graceful churn loses nothing, so failures are all drop-induced:
        # the retry budget must close nearly all of them.
        assert rate_on >= 0.99, (rate_on, rate_off)
        assert rate_off <= 0.85, (rate_on, rate_off)
        assert rate_on > rate_off

    def test_degraded_queries_stay_safe_after_churn(self):
        index, keys, _, _ = _run_arm(resilient=True)
        truth = sorted(k for k in keys if 0.25 <= k < 0.75)
        result = index.range_query(0.25, 0.75, degraded=True)
        assert set(result.keys) <= set(truth)
        if result.complete:
            assert result.keys == truth
        else:
            got = set(result.keys)
            for key in set(truth) - got:
                assert any(r.contains(key) for r in result.unreachable)

    def test_structure_survives_with_sanitizer_forced_on(self):
        """The full arm replays green with the runtime sanitizer active."""
        dht = registry.stack("resilient/faulty/chord", 24, 1)
        *_, chord = stack_layers(dht)
        index = LHTIndex(
            dht, IndexConfig(theta_split=10, max_depth=20, sanitize=True)
        )
        keys = [float(k) for k in np.random.default_rng(1).random(150)]
        for key in keys:
            index.insert(key)  # each insert re-validates Theorems 1-2
        sim = Simulator()
        driver = ChurnDriver(
            chord,
            sim,
            np.random.default_rng(derive_seed(1, "churn")),
            ChurnConfig(join_rate=0.4, leave_rate=0.4, crash_fraction=0.0, min_peers=8),
        )
        driver.start(until=DURATION)
        sim.run_until(DURATION)
        IndexInspector(chord).verify()
        for key in keys[::10]:
            assert index.delete(key).deleted  # sanitized mutations post-churn
        IndexInspector(chord).verify()


class TestResilientDeterminism:
    def test_resilient_substrate_replays_bit_identically(
        self, assert_deterministic
    ):
        """The determinism harness covers the full resilient stack."""
        assert_deterministic(substrate="resilient-local", seed=5, n_ops=200)
