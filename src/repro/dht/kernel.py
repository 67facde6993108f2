"""Shared peer-store kernel under every DHT substrate and wrapper.

The paper's whole point is that LHT runs unchanged over *any* generic
put/get DHT — so the only thing that should vary between substrates is
**topology**: how a key routes to its owning peer, and how the overlay
repairs itself.  Everything else — per-peer key/value storage and every
move of a key between peers, liveness, the array-backed sorted-id index
and its maintenance protocol, the seeded id population and gateway
draw, owner-first local writes, oracle reads, and all
:class:`~repro.dht.metrics.MetricsRecorder` charging — is
substrate-independent and lives here, exactly once.

Three classes:

* :class:`PeerStore` — the storage/membership kernel.  Owns the one
  ``dict[str, Any]`` store of every live peer (registration order is
  preserved, which pins oracle-scan order) and shares it with nobody:
  :meth:`PeerStore.add_peer` takes an id and returns nothing, node
  records carry no store, and a key changes peers only through
  :meth:`PeerStore.move_keys` (a join's range takeover) or
  :meth:`PeerStore.adopt` (a graceful leave's hand-off).  Also owns the
  array-backed sorted-id index maintained incrementally on every
  membership change — the single maintenance protocol that PR 4
  previously had to wire into four substrates by hand.
* :class:`SubstrateBase` — a :class:`~repro.dht.base.DHT` whose routed
  operations (``put``/``get``/``remove``) are implemented once against
  the peer store (batched rounds are the inherited
  :class:`~repro.dht.base.DHT` defaults over them), and which validates
  ``n_peers``, seeds the substrate's one RNG stream, draws peer ids
  (``_draw_ids``, ``_joiner_id``) and the per-operation gateway
  (``_gateway``) and counts ``keys_transferred``.  A concrete substrate
  is what is left: a :meth:`SubstrateBase.route` implementation
  (``key -> (owner_id, hops)``), a :meth:`SubstrateBase.peer_of`
  placement rule, and its maintenance protocol (finger repair, zone
  split, event dissemination, k-bucket construction, surrogate
  resolution) — which says *which* keys move on a join or leave, never
  how.  ``tests/test_registry.py`` keeps concrete substrates from
  re-growing overrides of the kernel-owned methods.
* :class:`DelegatingDHT` — the base for the wrapper stack
  (:class:`~repro.dht.faulty.FaultyDHT`,
  :class:`~repro.dht.replicated.ReplicatedDHT`,
  :class:`~repro.dht.serializing.SerializingDHT`,
  :class:`~repro.dht.accesslog.AccessLoggingDHT`,
  :class:`~repro.resilience.wrapper.ResilientDHT`).  It shares the inner
  recorder (costs add up across a stack) and delegates the full
  interface, so each wrapper overrides only the operations it actually
  changes.
"""

from __future__ import annotations

import abc
import bisect
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.dht.base import DHT, NO_REPLY
from repro.errors import ConfigurationError, EmptyOverlayError, NoSuchPeerError

__all__ = [
    "PeerStore",
    "PlacementPolicy",
    "SubstrateBase",
    "DelegatingDHT",
    "stack_layers",
]


class PeerStore:
    """Per-peer key/value stores, liveness, and the sorted-id index.

    Peers register in overlay-construction order and that order is
    preserved (Python dicts keep insertion order through deletions), so
    holder scans — the fallback path of :meth:`SubstrateBase.peek` and
    :meth:`SubstrateBase.local_write` — visit peers exactly as the
    pre-kernel substrates visited their node dicts.

    The sorted-id view is an *array-backed index maintained
    incrementally*: :meth:`add_peer` splices the id in with
    ``bisect.insort`` and :meth:`remove_peer` deletes by bisected
    position, so a membership event costs ``O(log n)`` search plus one
    ``O(n)`` memmove instead of the full ``O(n log n)`` ``sorted()``
    rebuild the lazy-invalidation protocol used to pay.  All substrates
    share this one index through :meth:`sorted_ids` /
    :meth:`successor_of`; none keeps a private copy of the membership.
    """

    __slots__ = ("_stores", "_sorted_ids")

    def __init__(self) -> None:
        self._stores: dict[int, dict[str, Any]] = {}
        self._sorted_ids: list[int] = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_peer(self, peer_id: int) -> None:
        """Register a live peer with an empty store of its own."""
        if peer_id in self._stores:
            raise NoSuchPeerError(f"peer {peer_id} already registered")
        self._stores[peer_id] = {}
        bisect.insort(self._sorted_ids, peer_id)

    def remove_peer(self, peer_id: int) -> dict[str, Any]:
        """Deregister a peer (leave/crash); returns its orphaned store,
        which a graceful departure feeds to :meth:`adopt`."""
        try:
            store = self._stores.pop(peer_id)
        except KeyError:
            raise NoSuchPeerError(f"peer {peer_id} is not registered") from None
        del self._sorted_ids[bisect.bisect_left(self._sorted_ids, peer_id)]
        return store

    def move_keys(
        self, src: int, dst: int, belongs: Callable[[str], bool]
    ) -> int:
        """A join's range takeover: hand every key of ``src`` that
        ``belongs`` to the joiner over to ``dst``; returns how many
        moved."""
        source, target = self.store_of(src), self.store_of(dst)
        moved = [key for key in source if belongs(key)]
        for key in moved:
            target[key] = source.pop(key)
        return len(moved)

    def adopt(self, heir: int, orphaned: dict[str, Any]) -> int:
        """A graceful leave's hand-off: merge the store
        :meth:`remove_peer` returned into ``heir``'s; returns how many
        keys it held."""
        self.store_of(heir).update(orphaned)
        return len(orphaned)

    def is_live(self, peer_id: int | None) -> bool:
        """Whether ``peer_id`` names a live peer."""
        return peer_id is not None and peer_id in self._stores

    def __len__(self) -> int:
        return len(self._stores)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._stores

    # ------------------------------------------------------------------
    # Sorted-id index (single maintenance protocol)
    # ------------------------------------------------------------------

    def sorted_ids(self) -> list[int]:
        """Sorted live-peer ids, maintained incrementally across
        membership changes (callers must not mutate the returned list)."""
        return self._sorted_ids

    def successor_of(self, point: int) -> int:
        """The live peer owning ring point ``point``: the first id
        ``>= point``, wrapping to the smallest id — the successor rule
        every ring substrate's ``peer_of`` reduces to."""
        ids = self._sorted_ids
        if not ids:
            raise NoSuchPeerError("no live peers")
        idx = bisect.bisect_left(ids, point)
        return ids[0] if idx == len(ids) else ids[idx]

    # ------------------------------------------------------------------
    # Storage access
    # ------------------------------------------------------------------

    def store_of(self, peer_id: int) -> dict[str, Any]:
        """The key/value store of one live peer."""
        try:
            return self._stores[peer_id]
        except KeyError:
            raise NoSuchPeerError(f"peer {peer_id} is not registered") from None

    def find_holder(self, key: str) -> int | None:
        """First peer (registration order) whose store holds ``key``."""
        for peer_id, store in self._stores.items():
            if key in store:
                return peer_id
        return None

    def all_keys(self) -> Iterator[str]:
        """Every stored key, grouped by peer in registration order."""
        for store in self._stores.values():
            yield from store

    def loads(self) -> dict[int, int]:
        """Stored-key count per peer, in registration order."""
        return {peer_id: len(store) for peer_id, store in self._stores.items()}


class PlacementPolicy(abc.ABC):
    """Replica placement rule: where the copies of a key's value live.

    The kernel hook behind topology-aware replication
    (:class:`~repro.dht.replicated.ReplicatedDHT`): a policy maps
    ``(key, owner, k)`` to the ordered list of peers that should hold
    the value — owner first, then the ``k - 1`` topology-derived backup
    holders (successor list, leaf set, zone neighbors, closest ids,
    table slice).  Concrete policies live in
    :mod:`repro.dht.placement` and are enrolled per substrate through
    :class:`~repro.dht.registry.SubstrateSpec`.

    Contract (checked by the placement conformance matrix and flow rule
    LHT013):

    * **pure** — ``replicas_for`` reads membership/topology state only:
      no :class:`~repro.dht.metrics.MetricsRecorder` charging, no peer
      store mutation, no wall clock, no randomness.  Placement is a
      deterministic *guarantee* derived from the overlay, never a hash
      accident or a sampled choice.
    * **owner-first** — ``result[0] == owner`` always.
    * **distinct and live** — no peer appears twice; every returned
      peer is live at call time.
    * **graceful degradation** — when fewer than ``k`` live peers
      exist, every live peer is returned (length ``min(k, n_live)``).
    """

    #: The overlay this policy reads topology from; set by :meth:`bind`.
    substrate: "SubstrateBase"

    def bind(self, substrate: "SubstrateBase") -> "PlacementPolicy":
        """Attach the policy to one overlay instance; returns ``self``."""
        self.substrate = substrate
        return self

    @abc.abstractmethod
    def replicas_for(self, key: str, owner: int, k: int) -> list[int]:
        """Ordered distinct live peers to hold ``key``, owner first."""


class SubstrateBase(DHT):
    """A DHT substrate built on the shared :class:`PeerStore` kernel.

    Concrete substrates implement exactly two placement methods —
    :meth:`route` (the routed path, charged) and :meth:`peer_of` (the
    oracle placement rule, free) — plus whatever topology maintenance
    their overlay needs.  The kernel implements every storage-facing
    method of the :class:`~repro.dht.base.DHT` interface against
    ``self.peers`` and funnels all metrics charging through one place.
    """

    #: Read/repair order for the un-routed paths (``peek``,
    #: ``local_write``).  Owner-first is right whenever computing the
    #: owner is cheaper than scanning every peer (all ring/XOR/prefix
    #: overlays); Tapestry flips it because surrogate resolution is
    #: ``O(digits · N)`` — more than the holder scan it would save.
    OWNER_FIRST_READS = True

    def __init__(self, n_peers: int, seed: int) -> None:
        super().__init__()  # a fresh recorder; wrappers share it
        if n_peers < 1:
            raise ConfigurationError(f"n_peers must be >= 1: {n_peers}")
        self.peers = PeerStore()
        #: The substrate's one seeded stream: peer ids at construction,
        #: then one gateway draw per routed operation.
        self._rng = np.random.default_rng(seed)
        #: Keys handed between peers by joins and graceful leaves.
        self.keys_transferred = 0

    # ------------------------------------------------------------------
    # Id population and the gateway draw
    # ------------------------------------------------------------------

    def _draw_ids(self, count: int, id_bits: int) -> list[int]:
        """``count`` fresh peer ids uniform on ``[0, 2**id_bits)``, in
        draw order; a draw that repeats or names a live peer is redrawn.

        The order they are registered in is the caller's, and is part
        of an overlay's observable behaviour: it pins the oracle-scan
        order of ``keys``/``peer_loads``/holder scans, so an overlay
        keeps the one it was built with (draw order, sorted, or a
        ``set``'s iteration order).
        """
        fresh: dict[int, None] = {}
        while len(fresh) < count:
            candidate = int(self._rng.integers(0, 1 << id_bits))
            if candidate not in self.peers:
                fresh[candidate] = None
        return list(fresh)

    def _joiner_id(self, node_id: int | None, id_bits: int) -> int:
        """The id a joining peer takes: drawn when ``None``, else
        ``node_id`` — which must lie in the identifier space and not
        name a live peer."""
        if node_id is None:
            return self._draw_ids(1, id_bits)[0]
        if node_id in self.peers or not 0 <= node_id < 1 << id_bits:
            raise ConfigurationError(
                f"node id already live or outside [0, 2**{id_bits}): {node_id}"
            )
        return node_id

    def _gateway(self) -> int:
        """A uniformly drawn live peer to originate a routed operation
        from (one draw on the substrate's stream)."""
        ids = self.peers.sorted_ids()
        if not ids:
            raise EmptyOverlayError("no live peers")
        return ids[int(self._rng.integers(0, len(ids)))]

    # ------------------------------------------------------------------
    # Substrate essence
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def route(self, key: str) -> tuple[int, int]:
        """Route to the peer responsible for ``key``.

        Returns ``(owner_peer_id, hops)``; the kernel charges the hops
        to the shared recorder.  Implementations that route from a
        random peer take it from :meth:`_gateway`, so routed-operation
        RNG streams are substrate-local.
        """

    @abc.abstractmethod
    def peer_of(self, key: str) -> int:
        """Placement oracle: the peer currently responsible for ``key``
        (free of lookup cost; must agree with :meth:`route` on a
        converged overlay)."""

    # ------------------------------------------------------------------
    # Routed operations (each is one DHT-lookup, charged here)
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        owner, hops = self.route(key)
        self.metrics.record_put(hops)
        self.peers.store_of(owner)[key] = value

    def get(self, key: str) -> Any | None:
        owner, hops = self.route(key)
        value = self.peers.store_of(owner).get(key)
        self.metrics.record_get(hops, found=value is not None)
        return value

    def remove(self, key: str) -> Any | None:
        owner, hops = self.route(key)
        self.metrics.record_remove(hops)
        return self.peers.store_of(owner).pop(key, None)

    # ------------------------------------------------------------------
    # Direct peer access (replica placement choke point)
    # ------------------------------------------------------------------
    #
    # Replica traffic goes through the same kernel accounting as routed
    # operations: each charged op is one DHT-lookup at one overlay hop,
    # because the caller (the replication layer) already knows the
    # replica holder — it is a topology neighbor of the owner, one
    # forward away, exactly the D1HT/successor-list replication model.
    # A probe of a *dead* peer is a failed get that got no reply (the
    # network work happened, nobody answered: ``NO_REPLY``), never an
    # exception: replica probing is the degraded path and must degrade,
    # not raise.

    def probe_get(self, key: str, peer_id: int) -> Any | None:
        if not self.peers.is_live(peer_id):
            self.metrics.record_get(1, found=False)
            return NO_REPLY
        value = self.peers.store_of(peer_id).get(key)
        self.metrics.record_get(1, found=value is not None)
        return value

    def put_at(self, key: str, value: Any, peer_id: int) -> None:
        if not self.peers.is_live(peer_id):
            self.metrics.record_failed_put(1)
            raise NoSuchPeerError(
                f"replica write of {key!r} to dead peer {peer_id}"
            )
        self.metrics.record_put(1)
        self.peers.store_of(peer_id)[key] = value

    def remove_at(self, key: str, peer_id: int) -> Any | None:
        if not self.peers.is_live(peer_id):
            self.metrics.record_failed_remove(1)
            return None
        self.metrics.record_remove(1)
        return self.peers.store_of(peer_id).pop(key, None)

    def local_write_at(self, key: str, value: Any, peer_id: int) -> None:
        # The replica holder rewrites its own disk (Alg. 1): free of
        # lookup cost, skipped silently when the holder has crashed —
        # the next replicated put re-establishes the copy.
        if self.peers.is_live(peer_id):
            self.peers.store_of(peer_id)[key] = value

    # ------------------------------------------------------------------
    # Local persistence (free of lookup cost)
    # ------------------------------------------------------------------

    def local_write(self, key: str, value: Any) -> None:
        # The holding peer rewrites its own disk (Alg. 1): update the
        # key wherever it currently lives — the responsible peer on any
        # converged overlay, possibly a stale holder under churn — and
        # place fresh keys at the responsible peer.
        if self.OWNER_FIRST_READS:
            owner_store = self.peers.store_of(self.peer_of(key))
            if key in owner_store:
                owner_store[key] = value
                return
            holder = self.peers.find_holder(key)
            if holder is not None:
                self.peers.store_of(holder)[key] = value
                return
            owner_store[key] = value
        else:
            holder = self.peers.find_holder(key)
            if holder is not None:
                self.peers.store_of(holder)[key] = value
                return
            self.peers.store_of(self.peer_of(key))[key] = value

    # ------------------------------------------------------------------
    # Introspection (free of lookup cost)
    # ------------------------------------------------------------------

    def peek(self, key: str) -> Any | None:
        if not len(self.peers):
            return None
        if self.OWNER_FIRST_READS:
            value = self.peers.store_of(self.peer_of(key)).get(key)
            if value is not None:
                return value
        holder = self.peers.find_holder(key)
        if holder is None:
            return None
        return self.peers.store_of(holder).get(key)

    def keys(self) -> Iterable[str]:
        return self.peers.all_keys()

    def peer_loads(self) -> dict[int, int]:
        return self.peers.loads()

    @property
    def n_peers(self) -> int:
        return len(self.peers)

    @property
    def node_ids(self) -> list[int]:
        """Sorted identifiers of all live peers."""
        return list(self.peers.sorted_ids())


class DelegatingDHT(DHT):
    """Base for wrapper DHTs: share the recorder, delegate everything.

    A wrapper overrides only the operations whose semantics it changes;
    the rest fall through to ``inner`` here, so cross-cutting plumbing
    (metrics pass-through, oracle delegation, error typing via the
    inherited :meth:`~repro.dht.base.DHT.multi_get`) lives in exactly
    one place.

    ``multi_get`` and ``multi_put`` are deliberately *not* forwarded to
    ``inner.multi_get`` / ``inner.multi_put``: the inherited sequential
    defaults issue each key through the **wrapper's own** ``get`` /
    ``put``, so per-key semantics (fault injection, retries, replica
    fan-out, serialization, access logging, breaker gating) apply to
    batched rounds exactly as to single operations, and a typed
    :class:`~repro.errors.DHTError` per key is absorbed or propagated
    by the one implementation in the abstract base.  Forwarding either
    batch to ``inner`` would silently skip every wrapper between the
    caller and the substrate — a wrapper that *does* need batch-level
    behaviour must override the method explicitly and route each item
    through its own single-key path (the rule
    ``tests/test_substrate_conformance.py`` pins per wrapper).
    """

    def __init__(self, inner: DHT) -> None:
        super().__init__(inner.metrics)  # share the recorder: costs add up
        self.inner = inner

    # ------------------------------------------------------------------
    # Routed operations (delegated; wrappers override selectively)
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        self.inner.put(key, value)

    def get(self, key: str) -> Any | None:
        return self.inner.get(key)

    def remove(self, key: str) -> Any | None:
        return self.inner.remove(key)

    def local_write(self, key: str, value: Any) -> None:
        self.inner.local_write(key, value)

    # Direct peer access forwards like the single-key operations: a
    # wrapper that changes per-operation semantics (fault injection,
    # byte encoding) overrides these alongside put/get/remove.

    def probe_get(self, key: str, peer_id: int) -> Any | None:
        return self.inner.probe_get(key, peer_id)

    def put_at(self, key: str, value: Any, peer_id: int) -> None:
        self.inner.put_at(key, value, peer_id)

    def remove_at(self, key: str, peer_id: int) -> Any | None:
        return self.inner.remove_at(key, peer_id)

    def local_write_at(self, key: str, value: Any, peer_id: int) -> None:
        self.inner.local_write_at(key, value, peer_id)

    # ------------------------------------------------------------------
    # Introspection (oracle access: never wrapped, never charged)
    # ------------------------------------------------------------------

    def peek(self, key: str) -> Any | None:
        return self.inner.peek(key)

    def keys(self) -> Iterable[str]:
        return self.inner.keys()

    def peer_of(self, key: str) -> int:
        return self.inner.peer_of(key)

    def peer_loads(self) -> dict[int, int]:
        return self.inner.peer_loads()

    @property
    def n_peers(self) -> int:
        return self.inner.n_peers


def stack_layers(dht: DHT) -> Iterator[DHT]:
    """Every layer of a wrapper stack, outermost first.

    The last layer yielded is the base substrate — the one object in
    the stack without an ``inner``.
    """
    layer: DHT | None = dht
    while layer is not None:
        yield layer
        layer = getattr(layer, "inner", None)
