"""Registry completeness and contract tests.

The registry (`repro.dht.registry`) is the single enrollment point:
every suite that iterates "all substrates" draws from it.  These tests
close the loop — a concrete ``SubstrateBase`` subclass under
``src/repro/dht/`` that is *not* registered fails here (and trips lint
rule LHT012 statically), so a new overlay cannot silently dodge the
conformance/fault/soak/determinism matrices.  The banked-benchmark
ordering test pins the acceptance criterion of the routing-diversity
study: single-hop routes in exactly 1.0 hops, Koorde strictly between
single-hop and Chord.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

from repro.dht import ChordDHT
from repro.dht import registry
from repro.dht.kernel import SubstrateBase
from repro.errors import ConfigurationError

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


def test_every_substrate_in_src_is_registered():
    expected = _all_substrate_classes()
    registered = {spec.cls for spec in registry.specs()}
    missing = expected - registered
    assert not missing, (
        "SubstrateBase subclasses not enrolled in repro.dht.registry: "
        f"{sorted(c.__name__ for c in missing)}"
    )
    assert registered <= expected, "registry names classes outside repro.dht"


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


def test_factories_returns_a_defensive_copy():
    copy = registry.factories()
    copy.pop("chord")
    assert "chord" in registry.factories()


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
