"""Abstract DHT interface (the paper's "generic put/get DHT", §2).

LHT is an *over-DHT* index: it relies only on ``put``/``get``/``remove``
keyed by strings, so any substrate implementing :class:`DHT` works
unchanged.  Every routed operation counts as exactly one *DHT-lookup* —
the paper's bandwidth unit — and substrates additionally report how many
physical overlay hops the routing took.  A read answers a value,
``None`` (a live peer answered "not stored") or :data:`NO_REPLY` (no
answer arrived), so a lost reply never passes for the failed get Alg. 2
reads as structure.

Substrates in this package (all built on the shared peer-store kernel,
:mod:`repro.dht.kernel`):

* :class:`~repro.dht.local.LocalDHT` — hash-partitioned in-memory store
  with a synthetic ``O(log N)`` hop model; the fast backend for large
  experiments.
* :class:`~repro.dht.chord.ChordDHT` — full Chord ring.
* :class:`~repro.dht.can.CANDHT` — CAN ``d``-torus with zone splits.
* :class:`~repro.dht.kademlia.KademliaDHT` — Kademlia XOR routing.
* :class:`~repro.dht.pastry.PastryDHT` — Pastry prefix routing.
* :class:`~repro.dht.tapestry.TapestryDHT` — Tapestry surrogate routing.

A composable wrapper stack rides on top — every wrapper is itself a
:class:`DHT` (built on :class:`~repro.dht.kernel.DelegatingDHT`), so
stacks like ``Serializing(Replicated(Faulty(Chord)))`` compose freely:

* :class:`~repro.dht.faulty.FaultyDHT` — seeded probabilistic failures.
* :class:`~repro.dht.replicated.ReplicatedDHT` — k-way placed replicas.
* :class:`~repro.dht.serializing.SerializingDHT` — values cross as bytes.
* :class:`~repro.dht.accesslog.AccessLoggingDHT` — per-key traffic log.
* :class:`~repro.resilience.wrapper.ResilientDHT` — retries + breaker.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Iterable, Sequence

from repro.dht.metrics import MetricsRecorder
from repro.errors import DHTError

__all__ = ["DHT", "NO_REPLY"]


class _Reply(enum.Enum):
    NO_REPLY = "no reply"


#: The third outcome of a read: no reply arrived (a dropped reply, a
#: dead replica holder, an absorbed typed error).  Unlike ``None`` —
#: a live peer answered "not stored", which is final — it says nothing
#: about the key: callers retry it or ask the replica holders.  An enum
#: member, so it is one object in every process and survives pickling.
NO_REPLY = _Reply.NO_REPLY


class DHT(abc.ABC):
    """A distributed hash table exposing the generic put/get interface.

    All concrete substrates share a :class:`MetricsRecorder`; index layers
    read per-operation costs from it via snapshots.
    """

    def __init__(self, metrics: MetricsRecorder | None = None) -> None:
        self.metrics = metrics or MetricsRecorder()

    # ------------------------------------------------------------------
    # Core interface (each call is one DHT-lookup)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def put(self, key: str, value: Any) -> None:
        """Store ``value`` at the peer responsible for ``hash(key)``."""

    @abc.abstractmethod
    def get(self, key: str) -> Any | None:
        """Fetch the value stored under ``key``.

        Three outcomes: the value; ``None`` — the responsible peer
        answered "not stored", the *failed* DHT-get Alg. 2 reads as
        structure, final and never worth retrying; or :data:`NO_REPLY`
        — no answer arrived, which says nothing about the key.
        """

    @abc.abstractmethod
    def remove(self, key: str) -> Any | None:
        """Delete and return the value under ``key``, or ``None``."""

    def multi_get(
        self, keys: Sequence[str], *, absorb_errors: bool = False
    ) -> list[Any | None]:
        """Issue one *batched parallel round* of gets, in key order.

        The paper's range algorithm forwards all of one bucket's
        sub-queries simultaneously (§6.3), so the index layer hands a
        whole frontier to the substrate at once.  Each key is still
        charged as one DHT-lookup — batching changes latency (one
        parallel step per round), never bandwidth.

        This default issues the gets sequentially through :meth:`get`;
        substrates with genuinely concurrent transports may override it,
        preserving both the per-key accounting and the result order.

        With ``absorb_errors=True`` (degraded-mode callers), a typed
        :class:`~repro.errors.DHTError` on one key — a routing failure,
        an open circuit breaker — yields :data:`NO_REPLY` for that key
        instead of failing the round; otherwise the error propagates and
        the round's remaining keys are not attempted.
        """
        values: list[Any | None] = []
        for key in keys:
            try:
                values.append(self.get(key))
            except DHTError:
                if not absorb_errors:
                    raise
                values.append(NO_REPLY)
        return values

    def multi_put(
        self,
        items: Sequence[tuple[str, Any]],
        *,
        absorb_errors: bool = False,
    ) -> list[bool]:
        """Issue one *batched parallel round* of puts, in item order.

        The write-side dual of :meth:`multi_get`: bulk loading ships one
        put per final leaf and the serving layer's write bursts hand a
        whole batch to the substrate at once.  Each item is still charged
        as one DHT-lookup — batching changes latency (one parallel step
        per round), never bandwidth — and the stored state is identical
        to issuing the same puts sequentially.

        Returns one ``bool`` per item: ``True`` when the value was
        stored.  With ``absorb_errors=True``, a typed
        :class:`~repro.errors.DHTError` on one item (an injected put
        failure, an open circuit breaker) yields ``False`` for that item
        instead of failing the round; otherwise the error propagates and
        the round's remaining items are not attempted — exactly the
        :meth:`multi_get` contract.

        This default issues the puts sequentially through :meth:`put`;
        substrates with genuinely concurrent transports may override it,
        preserving the per-item accounting and result order.
        """
        stored: list[bool] = []
        for key, value in items:
            try:
                self.put(key, value)
            except DHTError:
                if not absorb_errors:
                    raise
                stored.append(False)
            else:
                stored.append(True)
        return stored

    # ------------------------------------------------------------------
    # Direct peer access (replica placement)
    # ------------------------------------------------------------------
    #
    # Topology-aware replication (:mod:`repro.dht.placement`) stores a
    # value at *specific* peers — the owner's successors, leaf-set
    # members, zone neighbors — under the unmodified key.  There are
    # two kinds of DHT: peer-store kernel substrates implement these
    # against their stores, wrappers forward them to ``inner``.

    @abc.abstractmethod
    def probe_get(self, key: str, peer_id: int) -> Any | None:
        """Fetch ``key`` directly from ``peer_id``'s store (one charged
        routed get at one hop): the three outcomes of :meth:`get`, with
        a dead peer answering :data:`NO_REPLY`."""

    @abc.abstractmethod
    def put_at(self, key: str, value: Any, peer_id: int) -> None:
        """Store ``key`` directly at ``peer_id`` (one charged routed put
        at one hop)."""

    @abc.abstractmethod
    def remove_at(self, key: str, peer_id: int) -> Any | None:
        """Delete ``key`` directly at ``peer_id`` (one charged routed
        remove at one hop); returns the removed value or ``None``."""

    @abc.abstractmethod
    def local_write_at(self, key: str, value: Any, peer_id: int) -> None:
        """Persist a value at a known replica holder without routing
        (the replica's disk rewrite for Alg. 1 mutations; uncharged,
        like :meth:`local_write`).  A dead peer is skipped silently —
        the next replicated put repairs it."""

    # ------------------------------------------------------------------
    # Local persistence (free of lookup cost)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def local_write(self, key: str, value: Any) -> None:
        """Persist a value the *holding peer* just mutated, without
        routing.

        This models Alg. 1's "write ``b`` back to the local disk": after
        a split or a merge (and, in the PHT baseline, an in-node
        insert or delete) the peer already holds the object and
        rewrites it locally — no overlay traffic, hence
        no DHT-lookup is charged.  Object-store backends are free to
        treat this as a no-op when values are shared by reference;
        byte-store backends (:class:`~repro.dht.serializing.SerializingDHT`)
        re-encode here, which is what keeps the index correct without
        relying on in-process aliasing.
        """

    # ------------------------------------------------------------------
    # Introspection (free of lookup cost; used by tests and experiments)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def peek(self, key: str) -> Any | None:
        """Read a value without routing (oracle access for tests)."""

    @abc.abstractmethod
    def keys(self) -> Iterable[str]:
        """All stored keys (oracle access for tests)."""

    @abc.abstractmethod
    def peer_of(self, key: str) -> int:
        """Identifier of the peer currently responsible for ``key``."""

    @abc.abstractmethod
    def peer_loads(self) -> dict[int, int]:
        """Number of stored keys per peer (for load-balance studies)."""

    @property
    @abc.abstractmethod
    def n_peers(self) -> int:
        """Number of live peers in the overlay."""

    def __contains__(self, key: str) -> bool:
        return self.peek(key) is not None
