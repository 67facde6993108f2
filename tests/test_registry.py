"""Registry completeness, stack-spec and contract tests.

The registry (`repro.dht.registry`) is the single enrollment point:
every suite that iterates "all substrates" draws from it.  These tests
close the loop — a concrete ``SubstrateBase`` subclass under
``src/repro/dht/`` that is *not* registered fails here (a run-time
``__subclasses__`` walk), so a new overlay cannot silently dodge the
conformance/fault/soak/determinism matrices.  ``registry.stack`` builds
every multi-layer stack from one spec string; its tests pin the
grammar, the errors and the seed derivation.  The banked-benchmark
ordering test pins the acceptance criterion of the routing-diversity
study: single-hop routes in exactly 1.0 hops, Koorde strictly between
single-hop and Chord.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

from repro.dht import (
    AccessLoggingDHT,
    ChordDHT,
    FaultyDHT,
    LocalDHT,
    ReplicatedDHT,
    SerializingDHT,
    registry,
)
from repro.dht.kernel import SubstrateBase, stack_layers
from repro.errors import ConfigurationError
from repro.resilience import ResilientDHT
from repro.sim.rng import derive_seed

import repro.dht


def _all_substrate_classes() -> set[type]:
    """Every concrete SubstrateBase subclass defined in repro.dht."""
    for mod_info in pkgutil.iter_modules(repro.dht.__path__, "repro.dht."):
        importlib.import_module(mod_info.name)
    seen: set[type] = set()
    stack: list[type] = [SubstrateBase]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    return {
        cls
        for cls in seen
        if cls.__module__.startswith("repro.dht") and not inspect.isabstract(cls)
    }


def _unregistered_substrates() -> set[type]:
    return _all_substrate_classes() - {spec.cls for spec in registry.specs()}


def test_every_substrate_in_src_is_registered():
    missing = _unregistered_substrates()
    assert not missing, (
        "SubstrateBase subclasses not enrolled in repro.dht.registry: "
        f"{sorted(c.__name__ for c in missing)}"
    )
    registered = {spec.cls for spec in registry.specs()}
    assert registered <= _all_substrate_classes(), (
        "registry names classes outside repro.dht"
    )


def test_a_stray_substrate_is_reported_missing():
    """The run-time walk catches what lint rule LHT012 used to: a
    concrete substrate defined in ``repro.dht`` but never registered."""
    stray = type("StrayDHT", (LocalDHT,), {"__module__": "repro.dht.stray"})
    try:
        assert _unregistered_substrates() == {stray}
    finally:
        del stray
        gc.collect()  # a class is in a reference cycle with its MRO
    assert _unregistered_substrates() == set()


def test_registry_lists_all_eight_substrates():
    assert registry.names() == [
        "can",
        "chord",
        "kademlia",
        "koorde",
        "local",
        "onehop",
        "pastry",
        "tapestry",
    ]


@pytest.mark.parametrize("spec", registry.specs(), ids=lambda s: s.name)
def test_factories_build_working_overlays(spec):
    dht = registry.make(spec.name, 8, 3)
    assert isinstance(dht, spec.cls)
    assert dht.n_peers == 8
    dht.put("probe", {"v": 1})
    assert dht.get("probe") == {"v": 1}
    # The dynamic flag must be truthful: it is what churn-aware suites
    # branch on.  (CAN supports join/leave only; crash-fail is
    # Chord/OneHop-specific.)
    has_membership = all(
        callable(getattr(dht, attr, None)) for attr in ("join", "leave")
    )
    assert spec.dynamic == has_membership


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError, match="unknown substrate"):
        registry.make("no-such-overlay", 8, 0)


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register("chord", ChordDHT)


def test_banked_hop_metrics_pin_the_routing_extremes():
    """Acceptance criterion of the routing-diversity study, pinned on
    the checked-in benchgate baselines: OneHop routes in exactly 1.0
    hops per op in every phase, and Koorde lands strictly between
    OneHop and Chord."""
    root = Path(__file__).resolve().parents[1]
    for name in ("BENCH_lookup.json", "BENCH_range.json", "BENCH_build.json"):
        metrics = json.loads((root / name).read_text())["metrics"]
        onehop = metrics["hops_per_op_onehop"]
        koorde = metrics["hops_per_op_koorde"]
        chord = metrics["hops_per_op_chord"]
        assert onehop == 1.0, name
        assert onehop < koorde < chord, (name, onehop, koorde, chord)


#: What every 32-bit substrate draws for ``(n_peers=16, seed=3)``: they
#: all take their ids from the first draws of one seeded stream.
_RING32_IDS = [
    169217806, 367860371, 404279440, 686073414, 770692085, 778955830,
    1017093381, 1137256737, 1426794759, 1860266043, 2057509658, 2500366905,
    2668153314, 3441447623, 3485385464, 3733325604,
]
_LOCAL_IDS = [
    23886928983200740005692152860967006085044256758,
    56207056047068099099049195148075776895846939545,
    306998725314943876590154848089172789583348195493,
    453962762525111136620978859101208724719760595353,
    475252948402303751784066462935217371834225347936,
    699310863042992465311434381497701069761650755149,
    734201270435957958470700220347977218193890600179,
    762247894675330141919600409467128689575303678323,
    869844113917525212076075621501730751340484799295,
    911920357080823585518650339501043907166240568111,
    1110523761092514588991447904061944842829133428379,
    1110896582980566304539129132718161112847296758122,
    1208494428214178573537611984529723388753723836957,
    1283740178420454952043845377366971447499562508972,
    1323758426366619357846846560672190052419696522779,
    1365943255189297722368268533433513638379401876611,
]
#: name -> (hops the first routed get charges, sorted peer ids), as
#: captured before the kernel took over the id and gateway draws.
_ID_STREAM_PINS = {
    "can": (1, list(range(16))),
    "chord": (2, _RING32_IDS),
    "kademlia": (8, _RING32_IDS),
    "koorde": (3, _RING32_IDS),
    "local": (4, _LOCAL_IDS),
    "onehop": (1, _RING32_IDS),
    "pastry": (1, _RING32_IDS),
    "tapestry": (1, _RING32_IDS),
}


@pytest.mark.parametrize("name", registry.names())
def test_id_stream_and_first_gateway_draw_are_pinned(name):
    """Ids first, then one gateway draw per routed op: a reordered or
    extra draw on a substrate's stream fails here by name."""
    hops, ids = _ID_STREAM_PINS[name]
    dht = registry.make(name, 16, 3)
    assert sorted(dht.node_ids) == ids
    dht.get("pin-key")
    assert dht.metrics.snapshot().hops == hops


class TestStack:
    """``registry.stack(spec, n_peers, seed)``: ``layer[:arg]/.../substrate``,
    outermost layer first, five layers, one root seed."""

    def test_layers_outermost_first_with_defaults(self):
        dht = registry.stack(
            "accesslog/resilient/replicated/faulty/serializing/chord", 8, 1
        )
        layers = list(stack_layers(dht))
        assert [type(layer) for layer in layers] == [
            AccessLoggingDHT, ResilientDHT, ReplicatedDHT, FaultyDHT,
            SerializingDHT, ChordDHT,
        ]
        assert layers[2].n_replicas == 3
        assert layers[3].get_drop_rate == 0.0
        assert layers[-1].n_peers == 8

    def test_a_bare_name_is_make(self):
        for name in registry.names():
            stacked, made = registry.stack(name, 8, 3), registry.make(name, 8, 3)
            assert type(stacked) is type(made)
            assert stacked.node_ids == made.node_ids

    def test_arguments_reach_the_layers(self):
        replicated, faulty, _ = stack_layers(
            registry.stack("replicated:2/faulty:0.25/local", 8, 0)
        )
        assert replicated.n_replicas == 2
        assert faulty.get_drop_rate == 0.25

    def test_seeds_derive_from_the_root(self):
        """The substrate takes the root seed, the fault layer
        ``derive_seed(seed, "faults")``, the retry layer ``"retries"``."""
        resilient, faulty, base = stack_layers(
            registry.stack("resilient/faulty/local", 8, 11)
        )
        assert base.node_ids == registry.make("local", 8, 11).node_ids
        twin = FaultyDHT(base, seed=derive_seed(11, "faults"))
        assert faulty._rng.random() == twin._rng.random()
        retry_twin = ResilientDHT(base, seed=derive_seed(11, "retries"))
        assert resilient._rng.random() == retry_twin._rng.random()

    @pytest.mark.parametrize("spec", [
        "", "resilient", "napster", "cached/local", "local/local",
        "faulty:x/local", "faulty:/local", "faulty:1.5/local",
        "replicated:2.5/local", "replicated:0/local", "serializing:1/local",
        "resilient:3/local",
    ])
    def test_malformed_specs_are_configuration_errors(self, spec):
        with pytest.raises(ConfigurationError):
            registry.stack(spec, 8, 0)
