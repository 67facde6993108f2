"""The four stacks the workloads run on, built through the public API.

A stack is a substrate from the registry plus the wrappers above it.
With a :class:`~bench.spans.Tracer`, a :class:`~bench.spans.SpanDHT` is
interposed above every layer; layer names are the program's module
names, which is how the per-layer table is keyed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import IndexConfig, LHTIndex
from repro.dht import FaultyDHT, ReplicatedDHT, SerializingDHT, registry
from repro.dht.base import DHT
from repro.resilience import ResilientDHT
from repro.sim.rng import derive_seed

from bench.spans import SpanDHT, Tracer, span_methods

__all__ = ["CONFIG", "N_PEERS", "Stack", "build", "own_counters", "substrate_of"]

#: θ_split = 100 and D = 20 as in the paper's experiments (the mixed
#: workloads' insert window reaches depth 15).  D also decides where
#: Alg. 2's binary search probes first: at D = 24 that probe hits half of
#: this tree's leaves outright, which parks the *median* operation on the
#: edge between 1-probe and 3-probe lookups and makes ``p50_us`` flip
#: between two modes from seed to seed; at D = 20 the median sits inside
#: the 3-probe mode.  Merging is on because the mixed workloads exist to
#: exercise it.
CONFIG = IndexConfig(theta_split=100, max_depth=20, merge_enabled=True)
N_PEERS = 256
GET_DROP_RATE = 0.02
N_REPLICAS = 3


def substrate_of(stack: str) -> str:
    """Registry name of the substrate under a stack kind."""
    return "kademlia" if stack == "kademlia" else "local"


@dataclass
class Stack:
    """A built index plus handles on each layer for its own counters.

    ``layers`` maps module name to the program's object; ``boundaries``
    (traced stacks only) to the span wrapper directly above it.
    """

    index: LHTIndex
    layers: dict[str, DHT]
    boundaries: dict[str, SpanDHT]


def build(stack: str, seed: int, tracer: Tracer | None = None) -> Stack:
    """Construct ``stack`` ("local", "kademlia", "deploy" or "serve").

    ``serve`` is a bare ``local`` substrate; the front-end goes on top
    inside the timed phase.  Every seeded component draws its own
    stream from ``seed``.
    """
    layers: dict[str, DHT] = {}
    boundaries: dict[str, SpanDHT] = {}

    def add(layer: str, dht: DHT) -> DHT:
        layers[layer] = dht
        if tracer is None:
            return dht
        boundaries[layer] = SpanDHT(dht, tracer, layer)
        return boundaries[layer]

    top = add(
        "dht.kernel",
        registry.make(substrate_of(stack), N_PEERS, derive_seed(seed, "overlay")),
    )
    if stack == "deploy":
        top = add("dht.serializing", SerializingDHT(top))
        top = add(
            "dht.faulty",
            FaultyDHT(
                top,
                get_drop_rate=GET_DROP_RATE,
                seed=derive_seed(seed, "faults"),
            ),
        )
        top = add("dht.replicated", ReplicatedDHT(top, n_replicas=N_REPLICAS))
        top = add("resilience", ResilientDHT(top, seed=seed))
    index = LHTIndex(top, CONFIG)
    if tracer is not None and stack == "serve":
        # The serving layer is the index's caller here: give the
        # serve -> core boundary spans too (reads bypass the index and
        # cross straight to the DHT boundary).
        span_methods(index, tracer, "core", ("insert", "delete", "range_query"))
    return Stack(index, layers, boundaries)


#: Counters the wrappers keep on themselves rather than in the shared
#: MetricsRecorder.
_OWN_COUNTERS = (
    ("dht.serializing", "bytes_written"),
    ("dht.faulty", "dropped_gets"),
    ("resilience", "exhausted_gets"),
)


def own_counters(stack: Stack) -> dict[str, int]:
    """Current values of the per-object counters, keyed ``layer.name``;
    the set-up phase moves them too, so callers take differences."""
    values = {
        f"{layer}.{name}": getattr(stack.layers[layer], name)
        for layer, name in _OWN_COUNTERS
        if layer in stack.layers
    }
    if "dht.kernel" in stack.boundaries:
        values["dht.kernel.batched_keys"] = stack.boundaries["dht.kernel"].batched_keys
    return values
