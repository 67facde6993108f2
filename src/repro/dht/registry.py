"""The substrate registry: one enrollment point for every overlay.

Every concrete :class:`~repro.dht.kernel.SubstrateBase` subclass in
``repro.dht`` is registered here by name, and every suite that iterates
"all substrates" — the conformance matrix, the churn soak, the fault
matrix, the determinism gate, the benchgate hop metrics, and the
experiment runner's ``SUBSTRATES`` — draws its list from this module
instead of a hand-maintained copy.  Adding a substrate therefore means
adding exactly one :func:`register` call below; forgetting it is caught
twice, by lint rule LHT012 (static) and by the registry-completeness
test in ``tests/test_registry.py`` (runtime ``__subclasses__`` walk).

Factories take ``(n_peers, seed)`` and build an isolated overlay with
default routing parameters, which is the contract the experiment layer
(`repro.experiments.common.make_dht`) and all test matrices rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dht.can import CANDHT
from repro.dht.chord import ChordDHT
from repro.dht.base import DHT
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
from repro.dht.tapestry import TapestryDHT
from repro.errors import ConfigurationError

__all__ = [
    "SubstrateSpec",
    "register",
    "names",
    "spec",
    "specs",
    "factories",
    "make",
    "placement_for",
]


@dataclass(frozen=True)
class SubstrateSpec:
    """One registered substrate.

    Attributes:
        name: Registry key (the ``--substrate`` / experiment name).
        cls: The concrete :class:`SubstrateBase` subclass.
        factory: ``(n_peers, seed) -> DHT`` building a fresh overlay.
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
    factory: Callable[[int, int], DHT]
    dynamic: bool
    placement: Callable[[], PlacementPolicy] | None = None


_REGISTRY: dict[str, SubstrateSpec] = {}


def register(
    name: str,
    cls: type[SubstrateBase],
    factory: Callable[[int, int], DHT] | None = None,
    dynamic: bool = False,
    placement: Callable[[], PlacementPolicy] | None = None,
) -> None:
    """Enroll a substrate under ``name``; duplicate names are rejected."""
    if name in _REGISTRY:
        raise ConfigurationError(f"substrate already registered: {name!r}")
    if factory is None:
        factory = lambda n_peers, seed: cls(n_peers=n_peers, seed=seed)  # noqa: E731
    _REGISTRY[name] = SubstrateSpec(
        name=name, cls=cls, factory=factory, dynamic=dynamic,
        placement=placement,
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


def factories() -> dict[str, Callable[[int, int], DHT]]:
    """Name -> factory map (a fresh dict; mutating it cannot unregister)."""
    return {name: _REGISTRY[name].factory for name in names()}


def make(name: str, n_peers: int, seed: int) -> DHT:
    """Build a fresh overlay of the named substrate."""
    return spec(name).factory(n_peers, seed)


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
