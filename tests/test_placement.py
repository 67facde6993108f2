"""Placement-policy conformance matrix, churn soak, and failover tests.

Every registered substrate's topology policy is held to the
:class:`~repro.dht.kernel.PlacementPolicy` contract — pure, owner-first,
distinct live peers, graceful degradation — by iterating the registry,
so enrolling a new substrate automatically enrolls its policy here.
The second half pins the layered failover semantics end to end:
deterministic rescue through ``exact_match_checked`` and degraded range
queries (``FaultyDHT`` with every routed get dropped but probes
perfect), replica-divergence accounting on remove, and the k = 1
byte-identity guarantee.
"""

from __future__ import annotations

import pytest

from repro.baselines.pht.node import PHTNode
from repro.core import IndexConfig, Label, LeafBucket, LHTIndex, Record
from repro.core.interval import Range
from repro.core.range_query import RangeQueryExecutor
from repro.core.results import MatchStatus
from repro.dht import registry
from repro.dht.faulty import FaultyDHT
from repro.dht.local import LocalDHT
from repro.dht.kernel import PlacementPolicy, SubstrateBase, stack_layers
from repro.dht.placement import SuccessorListPolicy
from repro.dht.replicated import ReplicatedDHT, replica_layer
from repro.dht.serializing import SerializingDHT
from repro.errors import ConfigurationError

N_PEERS = 16
SAMPLE_KEYS = [f"key-{i}" for i in range(8)] + ["0b0", "0b0101", "#r/meta"]


def _base(dht):
    *_, base = stack_layers(dht)
    return base


@pytest.mark.parametrize("name", registry.names())
class TestConformanceMatrix:
    """The contract, checked per substrate via the registry."""

    def test_owner_first_distinct_live(self, name):
        dht = registry.make(name, N_PEERS, seed=0)
        policy = registry.placement_for(dht)
        alive = _base(dht).peers.is_live
        for key in SAMPLE_KEYS:
            owner = dht.peer_of(key)
            for k in (1, 2, 3, 4):
                targets = policy.replicas_for(key, owner, k)
                assert targets[0] == owner  # owner-first
                assert len(targets) == k  # 16 live peers >= k
                assert len(set(targets)) == k  # distinct
                assert all(alive(peer) for peer in targets)

    def test_placement_is_deterministic(self, name):
        dht = registry.make(name, N_PEERS, seed=0)
        policy = registry.placement_for(dht)
        for key in SAMPLE_KEYS:
            owner = dht.peer_of(key)
            first = policy.replicas_for(key, owner, 3)
            assert policy.replicas_for(key, owner, 3) == first

    def test_graceful_degradation(self, name):
        # Fewer live peers than k: every policy returns all of them
        # rather than padding or raising.
        dht = registry.make(name, 3, seed=0)
        policy = registry.placement_for(dht)
        owner = dht.peer_of("scarce")
        targets = policy.replicas_for("scarce", owner, 8)
        assert targets[0] == owner
        assert len(targets) == 3
        assert len(set(targets)) == 3


@pytest.mark.parametrize(
    "name", [s.name for s in registry.specs() if s.dynamic]
)
def test_churn_soak_replaces_dead_holders(name):
    """Killing a replica holder re-places onto live peers only."""
    dht = registry.make(name, N_PEERS, seed=0)
    policy = registry.placement_for(dht)
    alive = _base(dht).peers.is_live
    key = "soak-key"
    rounds = 0
    for _ in range(4):  # four rounds of targeted churn
        owner = dht.peer_of(key)
        targets = policy.replicas_for(key, owner, 3)
        victim = None  # a backup holder, never the owner
        for candidate in targets[1:]:
            if hasattr(dht, "fail"):
                dht.fail(candidate)
                victim = candidate
                break
            if dht.leave(candidate):  # CAN may refuse an unmergeable zone
                victim = candidate
                break
        if victim is None:
            continue
        rounds += 1
        if hasattr(dht, "stabilize_all"):
            dht.stabilize_all(rounds=2)
        owner = dht.peer_of(key)
        replaced = policy.replicas_for(key, owner, 3)
        assert victim not in replaced
        assert replaced[0] == owner
        assert len(set(replaced)) == 3
        assert all(alive(peer) for peer in replaced)
    assert rounds >= 2  # the soak actually churned


def test_placement_for_unwraps_wrapper_stacks():
    """The policy binds the *base* substrate under any wrapper stack."""
    base = LocalDHT(N_PEERS, 0)
    wrapped = FaultyDHT(base, get_drop_rate=0.0)
    policy = registry.placement_for(wrapped)
    assert policy.substrate is base


def test_placement_for_resolves_subclasses_to_the_parent_policy():
    """A subclass of an enrolled substrate replicates as its parent."""

    class TunedLocalDHT(LocalDHT):
        pass

    base = TunedLocalDHT(N_PEERS, 0)
    policy = registry.placement_for(FaultyDHT(base, get_drop_rate=0.0))
    assert type(policy) is SuccessorListPolicy
    assert policy.substrate is base


def test_unenrolled_base_is_rejected_unless_k_is_one():
    class ForeignDHT(SubstrateBase):
        """A kernel substrate nobody registered."""

        def route(self, key):
            return 0, 1

        def peer_of(self, key):
            return 0

    foreign = ForeignDHT(1, 0)
    foreign.peers.add_peer(0)
    with pytest.raises(ConfigurationError, match="no placement policy"):
        registry.placement_for(foreign)
    with pytest.raises(ConfigurationError, match="no placement policy"):
        ReplicatedDHT(foreign, n_replicas=2)
    passthrough = ReplicatedDHT(foreign, n_replicas=1)  # never resolves
    passthrough.put("k", "v")
    assert passthrough.get("k") == "v"
    assert passthrough.replica_peers("k") == [0]


class TestDivergenceAccounting:
    def test_divergent_remove_is_counted_and_primary_wins(self):
        inner = LocalDHT(N_PEERS, 0)
        dht = ReplicatedDHT(inner, n_replicas=3)
        dht.put("k", "v")
        # Corrupt one backup copy behind the wrapper's back.
        backup = dht.replica_peers("k")[1]
        inner.local_write_at("k", "stale", backup)
        before = inner.metrics.snapshot()
        assert dht.remove("k") == "v"  # primary copy is authoritative
        assert inner.metrics.since(before).replica_divergences == 1

    def test_agreeing_removes_do_not_count(self):
        dht = ReplicatedDHT(LocalDHT(N_PEERS, 0), n_replicas=3)
        dht.put("k", "v")
        before = dht.metrics.snapshot()
        assert dht.remove("k") == "v"
        assert dht.metrics.since(before).replica_divergences == 0

    @pytest.mark.parametrize("cls", [LeafBucket, PHTNode])
    def test_byte_store_replicas_compare_by_value(self, cls):
        """Every copy decoded from a byte store is a distinct object;
        only a differing label, key or payload is a divergence."""

        def value(payload):
            return cls(Label("01"), records=[Record(0.5, "a"), Record(0.75, payload)])

        for tampered, expected in ((value("b"), 0), (value("B"), 1)):
            dht = ReplicatedDHT(SerializingDHT(LocalDHT(N_PEERS, 0)), n_replicas=3)
            dht.put("k", value("b"))
            dht.local_write_at("k", tampered, dht.replica_peers("k")[1])
            before = dht.metrics.snapshot()
            assert dht.remove("k") == value("b")
            assert dht.metrics.since(before).replica_divergences == expected


class TestDeterministicFailover:
    """Every routed get drops, every direct probe answers."""

    @staticmethod
    def _build(n_replicas):
        faulty = FaultyDHT(LocalDHT(N_PEERS, 0), seed=7)
        dht = ReplicatedDHT(faulty, n_replicas=n_replicas)
        index = LHTIndex(dht, IndexConfig(theta_split=4, max_depth=20))
        keys = [i / 64 for i in range(64)]
        for key in keys:
            index.insert(key)
        faulty.get_drop_rate = 1.0
        faulty.probe_drop_rate = 0.0
        return dht, index, keys

    def test_exact_match_rescued_with_replicas(self):
        dht, index, keys = self._build(n_replicas=3)
        before = dht.metrics.snapshot()
        results = [index.exact_match_checked(key) for key in keys[:8]]
        assert all(r.status is MatchStatus.PRESENT for r in results)
        assert dht.metrics.replica_failovers >= 8
        assert dht.metrics.replica_probe_gets >= 8
        # The replica re-drive runs the same Alg. 2 plan: per-key probe
        # counts and routed totals are pinned for this fixed build.
        assert [r.dht_lookups for r in results] == [1, 2, 2, 2, 1, 3, 3, 3]
        spent = dht.metrics.since(before)
        assert (spent.dht_lookups, spent.replica_probe_gets) == (40, 23)

    def test_exact_match_unreachable_without_replicas(self):
        dht, index, keys = self._build(n_replicas=1)
        result = index.exact_match_checked(keys[0])
        assert result.status is MatchStatus.UNREACHABLE
        assert dht.metrics.replica_failovers == 0

    def test_degraded_range_query_completes_with_replicas(self):
        dht, index, keys = self._build(n_replicas=3)
        executor = RangeQueryExecutor(dht, index.config)
        result = executor.run(Range(0.25, 0.75))
        assert result.complete
        assert list(result.keys) == [k for k in keys if 0.25 <= k < 0.75]
        assert dht.metrics.replica_failovers > 0

    def test_degraded_range_query_incomplete_without_replicas(self):
        dht, index, _ = self._build(n_replicas=1)
        assert replica_layer(dht) is None  # k=1 offers no failover
        executor = RangeQueryExecutor(dht, index.config)
        result = executor.run(Range(0.25, 0.75))
        assert not result.complete
        assert result.unreachable  # the gaps are declared

    @staticmethod
    def _build_lossy_on_top():
        """The lossy layer *above* the replicas: ``ReplicatedDHT.get``
        never sees the drop, so only the index's own read path can
        reach the backup copies."""
        dht = FaultyDHT(ReplicatedDHT(LocalDHT(N_PEERS, 0), 3), seed=7)
        index = LHTIndex(dht, IndexConfig(theta_split=4, max_depth=20))
        keys = [i / 64 for i in range(64)]
        for key in keys:
            index.insert(key)
        dht.get_drop_rate = 1.0
        return dht, index, keys

    def test_min_max_rescued_with_replicas(self):
        dht, index, keys = self._build_lossy_on_top()
        assert index.exact_match_checked(keys[3]).status is MatchStatus.PRESENT
        assert index.range_query(0.25, 0.75, degraded=True).complete
        before = dht.metrics.replica_failovers
        for degraded in (True, False):  # the view raises nothing either
            low = index.min_query(degraded=degraded)
            high = index.max_query(degraded=degraded)
            assert low.complete and low.record.key == keys[0]
            assert high.complete and high.record.key == keys[-1]
        assert dht.metrics.replica_failovers >= before + 4

    def test_single_leaf_range_rescued_with_replicas(self):
        dht, index, keys = self._build_lossy_on_top()
        for key in keys[:8]:
            result = index.range_query(key, key + 1e-6, degraded=True)
            assert result.complete
            assert result.keys == [key]


class TestKOneIdentity:
    """n_replicas=1 is a byte-identical pass-through."""

    @staticmethod
    def _drive(dht):
        for i in range(64):
            dht.put(f"id-{i % 24}", i)
            dht.get(f"id-{(i * 7) % 31}")
            if i % 5 == 0:
                dht.remove(f"id-{(i * 3) % 24}")
        return dht.metrics.snapshot(), sorted(dht.keys())

    def test_metrics_and_state_identical(self):
        bare = self._drive(LocalDHT(N_PEERS, 0))
        wrapped = self._drive(ReplicatedDHT(LocalDHT(N_PEERS, 0), 1))
        assert bare == wrapped

    def test_policy_never_consulted_at_k1(self):
        class ExplodingPolicy(PlacementPolicy):
            def replicas_for(self, key, owner, k):
                raise AssertionError("policy consulted at k=1")

        dht = ReplicatedDHT(
            LocalDHT(N_PEERS, 0), n_replicas=1, policy=ExplodingPolicy()
        )
        dht.put("k", "v")
        assert dht.get("k") == "v"
        assert dht.remove("k") == "v"
