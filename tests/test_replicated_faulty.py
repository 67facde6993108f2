"""Tests for the replication and fault-injection DHT wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndexConfig, LHTIndex, MatchStatus
from repro.dht import (
    NO_REPLY,
    ChordDHT,
    FaultyDHT,
    LocalDHT,
    ReplicatedDHT,
)
from repro.errors import ConfigurationError, DHTError, ReproError


class TestReplicatedDHT:
    def test_put_writes_all_replicas(self):
        inner = LocalDHT(16, 0)
        dht = ReplicatedDHT(inner, n_replicas=3)
        dht.put("k", "v")
        assert inner.metrics.puts == 3  # put amplification is charged
        assert inner.peek("k") == "v"
        # Every placement target holds its own copy under the plain key.
        for peer in dht.replica_peers("k"):
            assert inner.probe_get("k", peer) == "v"

    def test_get_prefers_primary(self):
        inner = LocalDHT(16, 0)
        dht = ReplicatedDHT(inner, n_replicas=3)
        dht.put("k", "v")
        before = inner.metrics.snapshot()
        assert dht.get("k") == "v"
        assert inner.metrics.since(before).gets == 1

    def test_lost_primary_copy_is_rescued_by_the_index(self):
        """An owner that lost its copy answers "not stored" — final at
        the wrapper, which probes no backup — so the index's lookup
        cannot converge and ``finish_lookup`` re-drives it over replica
        probes: PRESENT, with one failover tick."""
        inner = LocalDHT(16, 0)
        index = LHTIndex(
            ReplicatedDHT(inner, n_replicas=3),
            IndexConfig(theta_split=4, max_depth=20),
        )
        keys = [float(k) for k in np.random.default_rng(1).random(60)]
        for key in keys:
            index.insert(key)
        key = keys[7]
        name = str(index.lookup(key).name)
        inner.remove(name)  # primary copy lost at the owner
        assert index.dht.get(name) is None  # the owner's answer stands
        before = inner.metrics.snapshot()
        result = index.exact_match_checked(key)
        assert result.status is MatchStatus.PRESENT
        assert result.record.key == key
        spent = inner.metrics.since(before)
        assert spent.replica_failovers == 1
        assert spent.replica_probe_gets >= 2  # the owner, then a backup

    def test_get_fails_over_only_on_no_reply(self):
        inner = LocalDHT(16, 0)
        flaky = FaultyDHT(inner, get_drop_rate=1.0, probe_drop_rate=0.0)
        dht = ReplicatedDHT(flaky, n_replicas=3)
        dht.put("k", "v")
        assert dht.get("k") == "v"  # dropped primary, served by a backup
        assert inner.metrics.replica_failovers == 1
        assert inner.metrics.replica_probe_gets == 1
        # An absent name: every backup answers, so the miss is final.
        assert dht.get("absent") is None
        assert inner.metrics.replica_probe_gets == 3
        # Nobody answers: the reply stays lost for a retry layer above.
        flaky.probe_drop_rate = 1.0
        assert dht.get("k") is NO_REPLY

    def test_remove_clears_all(self):
        inner = LocalDHT(16, 0)
        dht = ReplicatedDHT(inner, n_replicas=2)
        dht.put("k", "v")
        assert dht.remove("k") == "v"
        assert dht.get("k") is None
        assert list(dht.keys()) == []

    def test_keys_deduplicated(self):
        dht = ReplicatedDHT(LocalDHT(16, 0), n_replicas=3)
        dht.put("a", 1)
        dht.put("b", 2)
        assert sorted(dht.keys()) == ["a", "b"]

    def test_replica_peers_distinct(self):
        dht = ReplicatedDHT(LocalDHT(64, 0), n_replicas=3)
        peers = dht.replica_peers("some-key")
        assert len(set(peers)) == 3  # placement guarantees distinctness

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReplicatedDHT(LocalDHT(4, 0), n_replicas=0)

    @staticmethod
    def _availability_after_crashes(n_replicas: int) -> float:
        inner = ChordDHT(n_peers=24, seed=0)
        dht = ReplicatedDHT(inner, n_replicas=n_replicas)
        index = LHTIndex(dht, IndexConfig(theta_split=10, max_depth=20))
        keys = [float(k) for k in np.random.default_rng(0).random(300)]
        for key in keys:
            index.insert(key)
        # crash a quarter of the ring (same victims for both runs)
        for victim in inner.node_ids[::4]:
            if inner.n_peers > 8:
                inner.fail(victim)
        inner.stabilize_all(rounds=3)
        inner.check_ring()
        hits = 0
        for key in keys:
            try:
                record, _ = index.exact_match(key)
            except ReproError:
                continue
            hits += record is not None
        return hits / len(keys)

    def test_replication_restores_availability_under_crashes(self):
        """The E14 story with the fix applied: after crashing a quarter
        of the ring, 3-way replication recovers most of what a
        single-replica index loses."""
        single = self._availability_after_crashes(n_replicas=1)
        triple = self._availability_after_crashes(n_replicas=3)
        assert triple > single
        assert triple > 0.8
        assert single < 0.8  # the problem actually existed


class TestFaultyDHT:
    def test_no_faults_is_transparent(self):
        dht = FaultyDHT(LocalDHT(8, 0), get_drop_rate=0.0)
        dht.put("k", 1)
        assert dht.get("k") == 1

    def test_drops_are_counted(self):
        dht = FaultyDHT(LocalDHT(8, 0), get_drop_rate=1.0, seed=1)
        dht.put("k", 1)
        assert dht.get("k") is NO_REPLY
        assert dht.probe_get("k", dht.peer_of("k")) is NO_REPLY
        assert dht.dropped_gets == 2
        assert dht.peek("k") == 1  # oracle access is never faulty

    def test_put_failures_raise(self):
        dht = FaultyDHT(LocalDHT(8, 0), put_fail_rate=1.0)
        with pytest.raises(DHTError):
            dht.put("k", 1)
        assert dht.failed_puts == 1

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FaultyDHT(LocalDHT(4, 0), get_drop_rate=1.5)

    def test_lookup_never_returns_wrong_bucket(self):
        """The safety contract under lossy gets: an LHT lookup may fail
        to converge, but any bucket it does return covers the key."""
        inner = LocalDHT(16, 0)
        index = LHTIndex(inner, IndexConfig(theta_split=4, max_depth=20))
        keys = [float(k) for k in np.random.default_rng(2).random(300)]
        for key in keys:
            index.insert(key)
        flaky = FaultyDHT(inner, get_drop_rate=0.3, seed=3)
        converged = failed = 0
        from repro.core import lht_lookup

        for probe in np.random.default_rng(4).random(200):
            result = lht_lookup(flaky, index.config, float(probe))
            if result.found:
                converged += 1
                assert result.bucket.contains_key(float(probe))
            else:
                failed += 1
        assert converged > 0 and failed > 0  # both regimes exercised
