"""Replication wrapper: k-way replica placement over any substrate.

The churn experiment (E14) shows that with single-replica storage a
crashing peer takes its leaf buckets with it.  Real deployments (e.g.
OpenDHT, which the paper's Bamboo testbed powers) replicate each value
on several peers.  This wrapper adds that behaviour above any
:class:`~repro.dht.base.DHT` — but *where* the copies live is decided
by a :class:`~repro.dht.kernel.PlacementPolicy`, resolved through the
substrate registry: successors on Chord/Koorde, the leaf set on Pastry,
zone neighbors on CAN, XOR-closest ids on Kademlia/Tapestry, a table
slice on OneHop.  Topology-aware placement is what makes failover
*work*: the backup holders are exactly the peers post-crash routing
converges on, and a degraded read can probe them directly
(:meth:`ReplicatedDHT.failover_get`) instead of reporting UNREACHABLE.

Reads act on the three outcomes of :meth:`~repro.dht.base.DHT.get`.
A primary that answers — a value, or ``None`` for "not stored" — is
final: absent names, which Alg. 2 reads on about half its probes, cost
one routed get as on the bare substrate.  Only a primary that gave
:data:`~repro.dht.base.NO_REPLY` is failed over to the backups; the
first stored value wins, and if none arrives the get answers ``None``
when some holder answered and ``NO_REPLY`` when none did, so a retry
layer above still sees the reply as lost.

Cost accounting is honest: a put writes every replica
(``k`` routed operations, so put amplification is visible), and every
failover probe is charged as a normal routed get plus a
``replica_probe_gets`` tick.
With ``n_replicas=1`` the wrapper is a pure pass-through — the policy
is never consulted and the operation stream is byte-identical to the
unwrapped substrate.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.dht.base import DHT, NO_REPLY
from repro.dht.kernel import DelegatingDHT, PlacementPolicy, stack_layers
from repro.dht.serializing import serializing_layer
from repro.errors import ConfigurationError

__all__ = ["ReplicatedDHT", "replica_layer"]


def replica_layer(dht: DHT) -> "ReplicatedDHT | None":
    """The replication layer inside a wrapper stack, if failover exists.

    Walks the stack outside-in and returns the first
    :class:`ReplicatedDHT` carrying more than one replica — the layer
    whose :meth:`~ReplicatedDHT.failover_get` a degraded read can
    consult — or ``None`` when the stack has no replicas to offer
    (including ``n_replicas=1``, where failover could only repeat the
    primary read).
    """
    for layer in stack_layers(dht):
        if isinstance(layer, ReplicatedDHT) and layer.n_replicas > 1:
            return layer
    return None


class ReplicatedDHT(DelegatingDHT):
    """Store each value on ``n_replicas`` peers chosen by a placement
    policy.

    The primary copy always lives where the unwrapped substrate routes
    the key (replica 0 *is* the normal put), so with ``n_replicas=1``
    the wrapper changes nothing and no policy is resolved.  Backup
    copies go to the policy's peers via the kernel's direct peer
    access.
    """

    def __init__(
        self,
        inner: DHT,
        n_replicas: int = 3,
        policy: PlacementPolicy | None = None,
    ) -> None:
        if n_replicas < 1:
            raise ConfigurationError(f"n_replicas must be >= 1: {n_replicas}")
        super().__init__(inner)
        self.n_replicas = n_replicas
        if policy is None and n_replicas > 1:
            # Function-level import: the registry imports placement
            # policies for its default enrollments, so importing it at
            # module top would cycle.
            from repro.dht.registry import placement_for

            policy = placement_for(inner)
        elif policy is not None and not hasattr(policy, "substrate"):
            *_, base = stack_layers(inner)
            policy.bind(base)
        self.policy = policy
        #: The byte layer below, if any: a fan-out encodes its value
        #: there once, and every holder stores that one payload.
        self._wire = serializing_layer(inner)

    def _targets(self, key: str) -> list[int]:
        """Ordered replica holders for ``key`` (owner first, live)."""
        owner = self.inner.peer_of(key)
        if self.n_replicas == 1:
            return [owner]
        return self.policy.replicas_for(key, owner, self.n_replicas)

    # ------------------------------------------------------------------
    # DHT interface
    # ------------------------------------------------------------------

    def _fan_out(self, value: Any) -> Any:
        """The value as every holder's write carries it: encoded once
        when a byte layer sits below."""
        return value if self._wire is None else self._wire.encoded(value)

    def put(self, key: str, value: Any) -> None:
        if self.n_replicas == 1:
            self.inner.put(key, value)
            return
        value = self._fan_out(value)
        self.inner.put(key, value)
        for peer in self._targets(key)[1:]:
            self.inner.put_at(key, value, peer)

    def get(self, key: str) -> Any | None:
        value = self.inner.get(key)
        if value is not NO_REPLY or self.n_replicas == 1:
            return value  # the primary answered: final
        answered = False
        for peer in self._targets(key)[1:]:
            self.metrics.record_replica_probe_get()
            value = self.inner.probe_get(key, peer)
            if value is None:
                answered = True
            elif value is not NO_REPLY:
                self.metrics.record_replica_failover()
                return value
        return None if answered else NO_REPLY

    def remove(self, key: str) -> Any | None:
        removed = [self.inner.remove(key)] + [
            self.inner.remove_at(key, peer)
            for peer in self._targets(key)[1:]
        ]
        present = [value for value in removed if value is not None]
        if present and any(value != present[0] for value in present[1:]):
            # Divergent replicas: surface the drift instead of silently
            # answering with whichever copy happened to come back first.
            self.metrics.record_replica_divergence()
        if removed[0] is not None:
            return removed[0]  # the primary copy is authoritative
        return present[0] if present else None

    def local_write(self, key: str, value: Any) -> None:
        if self.n_replicas == 1:
            self.inner.local_write(key, value)
        else:
            # Every holder — owner included — rewrites its own copy;
            # addressing them explicitly keeps replicas from shadowing
            # the owner in the kernel's holder scan.
            value = self._fan_out(value)
            for peer in self._targets(key):
                self.inner.local_write_at(key, value, peer)

    # ------------------------------------------------------------------
    # Degraded-read failover (consulted by repro.core before declaring
    # a query UNREACHABLE; see docs/resilience.md)
    # ------------------------------------------------------------------

    def failover_get(self, key: str) -> Any | None:
        """Probe every replica holder of ``key`` directly.

        The degraded-read escape hatch: when the routed path has
        already failed, this asks each holder — primary included, since
        a direct probe is a different channel than the failed routed
        lookup — for its copy.  Every probe is charged as a routed get
        plus a ``replica_probe_gets`` tick; the *caller* records the
        failover once the rescued value actually rescues its query.
        Skips ``None`` and ``NO_REPLY`` answers alike — a holder whose
        copy was lost is no better than a silent one — and returns
        ``None`` when no live holder has the key.
        """
        if self.n_replicas == 1:
            return None
        for peer in self._targets(key):
            self.metrics.record_replica_probe_get()
            value = self.inner.probe_get(key, peer)
            if value is not None and value is not NO_REPLY:
                return value
        return None

    # ------------------------------------------------------------------
    # Introspection (delegates; replica copies are deduplicated)
    # ------------------------------------------------------------------

    def keys(self) -> Iterable[str]:
        # Replicas repeat the key at several peers; report each once.
        return iter(dict.fromkeys(self.inner.keys()))

    def replica_peers(self, key: str) -> list[int]:
        """Peers holding each replica of ``key``, owner first."""
        return self._targets(key)
