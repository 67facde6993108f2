"""The substrate registry and the one stack spec.

Every concrete :class:`~repro.dht.kernel.SubstrateBase` subclass in
``repro.dht`` is registered here by name, and every suite that iterates
"all substrates" — the conformance matrix, the churn soak, the fault
matrix, the determinism gate, the benchgate hop metrics, and the
experiments — draws its list from :func:`names` and builds an isolated
overlay with default routing parameters through :func:`make`.  Adding a
substrate therefore means adding exactly one :func:`register` call
below; forgetting it is caught by the registry-completeness test in
``tests/test_registry.py`` (a runtime ``__subclasses__`` walk).

A multi-layer stack is built by :func:`stack` from a spec string
``layer[:arg]/.../substrate``, outermost layer first — e.g.
``"resilient/replicated:3/faulty:0.02/serializing/local"``.  The last
token is a registry name; the five layers are

* ``faulty[:p]`` — :class:`FaultyDHT` dropping a fraction ``p`` of gets
  (default 0), seeded ``derive_seed(seed, "faults")``;
* ``resilient[:attempts]`` — :class:`ResilientDHT` with
  ``RetryPolicy(max_attempts=attempts)`` (default: the default
  policy), seeded ``derive_seed(seed, "retries")``;
* ``replicated[:k]`` — :class:`ReplicatedDHT` with ``k`` replicas
  (default 3);
* ``serializing`` — :class:`SerializingDHT`;
* ``accesslog`` — :class:`AccessLoggingDHT`.

The substrate itself is ``make(substrate, n_peers, seed)``, so one root
seed fixes the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.dht.accesslog import AccessLoggingDHT
from repro.dht.can import CANDHT
from repro.dht.chord import ChordDHT
from repro.dht.base import DHT
from repro.dht.faulty import FaultyDHT
from repro.dht.kademlia import KademliaDHT
from repro.dht.kernel import PlacementPolicy, SubstrateBase, stack_layers
from repro.dht.koorde import KoordeDHT
from repro.dht.local import LocalDHT
from repro.dht.onehop import OneHopDHT
from repro.dht.pastry import PastryDHT
from repro.dht.placement import (
    ClosestIdsPolicy,
    LeafSetPolicy,
    SuccessorListPolicy,
    TableSlicePolicy,
    ZoneNeighborsPolicy,
)
from repro.dht.replicated import ReplicatedDHT
from repro.dht.serializing import SerializingDHT
from repro.dht.tapestry import TapestryDHT
from repro.errors import ConfigurationError
from repro.resilience.policy import RetryPolicy
from repro.resilience.wrapper import ResilientDHT
from repro.sim.rng import derive_seed

__all__ = [
    "SubstrateSpec",
    "register",
    "names",
    "spec",
    "specs",
    "make",
    "stack",
    "placement_for",
]


@dataclass(frozen=True)
class SubstrateSpec:
    """One registered substrate.

    Attributes:
        name: Registry key (the ``--substrate`` / experiment name).
        cls: The concrete :class:`SubstrateBase` subclass, built as
            ``cls(n_peers=n_peers, seed=seed)``.
        dynamic: Whether the overlay supports membership churn
            (``join``/``leave``/``fail``) after construction.
        placement: Factory for the substrate's topology-aware
            :class:`PlacementPolicy` (successor list, leaf set, zone
            neighbors, ...); ``None`` enrolls the substrate without
            replication support.  A factory — not an instance — because
            policies bind to one overlay and specs are process-global.
    """

    name: str
    cls: type[SubstrateBase]
    dynamic: bool
    placement: Callable[[], PlacementPolicy] | None = None


_REGISTRY: dict[str, SubstrateSpec] = {}


def register(
    name: str,
    cls: type[SubstrateBase],
    dynamic: bool = False,
    placement: Callable[[], PlacementPolicy] | None = None,
) -> None:
    """Enroll a substrate under ``name``; duplicate names are rejected."""
    if name in _REGISTRY:
        raise ConfigurationError(f"substrate already registered: {name!r}")
    _REGISTRY[name] = SubstrateSpec(
        name=name, cls=cls, dynamic=dynamic, placement=placement
    )


def names() -> list[str]:
    """All registered substrate names, sorted."""
    return sorted(_REGISTRY)


def spec(name: str) -> SubstrateSpec:
    """The spec registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown substrate {name!r}; expected one of {names()}"
        ) from None


def specs() -> list[SubstrateSpec]:
    """All registered specs in name order."""
    return [_REGISTRY[name] for name in names()]


def make(name: str, n_peers: int, seed: int) -> DHT:
    """Build a fresh overlay of the named substrate."""
    return spec(name).cls(n_peers=n_peers, seed=seed)


#: Layer name -> (argument parser or ``None`` for no argument, builder
#: ``(inner, seed, *arg) -> DHT``); an omitted argument takes the
#: wrapper's own default.
_LAYERS: dict[str, tuple[Callable[[str], Any] | None, Callable[..., DHT]]] = {
    "faulty": (float, lambda inner, seed, *p: FaultyDHT(
        inner, *p, seed=derive_seed(seed, "faults"))),
    "resilient": (int, lambda inner, seed, *a: ResilientDHT(
        inner, RetryPolicy(*a), seed=derive_seed(seed, "retries"))),
    "replicated": (int, lambda inner, seed, *k: ReplicatedDHT(inner, *k)),
    "serializing": (None, lambda inner, seed: SerializingDHT(inner)),
    "accesslog": (None, lambda inner, seed: AccessLoggingDHT(inner)),
}


def stack(spec: str, n_peers: int, seed: int) -> DHT:
    """Build the stack ``layer[:arg]/.../substrate``, outermost first.

    An unknown layer or substrate, an argument on a layer that takes
    none, or an argument that does not parse raises
    :class:`ConfigurationError`.
    """
    *layers, substrate = spec.split("/")
    dht = make(substrate, n_peers, seed)
    for token in reversed(layers):
        name, colon, raw = token.partition(":")
        if name not in _LAYERS:
            raise ConfigurationError(
                f"unknown layer {name!r} in {spec!r}; expected one of "
                f"{sorted(_LAYERS)}"
            )
        parse, build = _LAYERS[name]
        args: tuple[Any, ...] = ()
        if colon:
            if parse is None:
                raise ConfigurationError(f"layer {name!r} takes no argument")
            try:
                args = (parse(raw),)
            except ValueError:
                raise ConfigurationError(
                    f"malformed argument {raw!r} for layer {name!r}"
                ) from None
        dht = build(dht, seed, *args)
    return dht


def placement_for(dht: DHT) -> PlacementPolicy:
    """Resolve the placement policy for a (possibly wrapped) overlay.

    Walks the wrapper stack to its base substrate and returns the
    topology-aware policy enrolled for that substrate's class, bound to
    the base.  A subclass of an enrolled substrate resolves to its
    nearest enrolled ancestor (the most-derived enrolled class wins),
    so it replicates exactly as its parent does; a base with no
    enrolled ancestor is a wiring mistake and raises
    :class:`ConfigurationError`.
    """
    *_, base = stack_layers(dht)
    for cls in type(base).__mro__:
        for registered in _REGISTRY.values():
            if registered.cls is cls and registered.placement is not None:
                return registered.placement().bind(base)
    raise ConfigurationError(
        f"no placement policy enrolled for {type(base).__name__}; "
        "register(...) the substrate with a placement= policy"
    )


register("can", CANDHT, dynamic=True, placement=ZoneNeighborsPolicy)
register("chord", ChordDHT, dynamic=True, placement=SuccessorListPolicy)
register("kademlia", KademliaDHT, placement=ClosestIdsPolicy)
register("koorde", KoordeDHT, placement=SuccessorListPolicy)
register("local", LocalDHT, placement=SuccessorListPolicy)
register("onehop", OneHopDHT, dynamic=True, placement=TableSlicePolicy)
register("pastry", PastryDHT, placement=LeafSetPolicy)
register("tapestry", TapestryDHT, placement=ClosestIdsPolicy)
