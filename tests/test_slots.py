"""Guards against ``__dict__`` creeping back onto hot-path objects.

The hot-path overhaul put ``__slots__`` (or slotted dataclasses) on
every object allocated per record, per request, or per routing step —
at 2^20 keys a stray instance ``__dict__`` costs tens of MB and a
measurable fraction of build time.  An innocent-looking edit (adding a
``@cached_property``, dropping ``slots=True`` while touching fields)
silently reintroduces it, so this test enumerates the hot classes and
rejects any instance that grew a ``__dict__``.
"""

from __future__ import annotations

import pytest

from repro.cache.leafcache import LeafCache
from repro.core.bucket import LeafBucket, Record
from repro.core.bulkbuild import BulkPlan
from repro.core.interval import DyadicInterval, Range
from repro.core.label import Label
from repro.devtools.benchgate import PhaseResult
from repro.dht.can import CANNode, Zone
from repro.dht.chord import ChordNode
from repro.dht.kademlia import KademliaNode
from repro.dht.kernel import PeerStore
from repro.dht.koorde import KoordeNode
from repro.dht.onehop import OneHopNode
from repro.dht.pastry import PastryNode
from repro.dht.tapestry import TapestryNode
from repro.serve.service import BatchResult, Response, Status
from repro.workloads.trace import Request, RequestKind

#: Every hot class, with a constructor call producing a live instance.
_HOT_INSTANCES = {
    "Record": lambda: Record(0.5),
    "LeafBucket": lambda: LeafBucket(Label("0")),
    "Label": lambda: Label("01"),
    "DyadicInterval": lambda: DyadicInterval(1, 2),
    "Range": lambda: Range(0.25, 0.5),
    "BulkPlan": lambda: BulkPlan({}, set(), (), 0),
    "PeerStore": lambda: PeerStore(),
    "ChordNode": lambda: ChordNode(id=1),
    "OneHopNode": lambda: OneHopNode(id=1),
    "KoordeNode": lambda: KoordeNode(id=1),
    "KademliaNode": lambda: KademliaNode(id=1),
    "PastryNode": lambda: PastryNode(id=1),
    "CANNode": lambda: CANNode(id=1, zone=Zone(lows=(0.0,), highs=(1.0,))),
    "TapestryNode": lambda: TapestryNode(id=1),
    "LeafCache": lambda: LeafCache(capacity=4),
    "Request": lambda: Request(kind=RequestKind.LOOKUP, key=0.5),
    "Response": lambda: Response(status=Status.OK),
    "BatchResult": lambda: BatchResult(responses=[], rounds=0),
    "PhaseResult": lambda: PhaseResult(name="build", counts={}, hotspots=[]),
}


@pytest.mark.parametrize("name", sorted(_HOT_INSTANCES))
def test_hot_object_has_no_instance_dict(name):
    obj = _HOT_INSTANCES[name]()
    assert not hasattr(obj, "__dict__"), (
        f"{name} grew an instance __dict__ — a hot-path class lost its "
        "__slots__ (or a dataclass lost slots=True)"
    )


@pytest.mark.parametrize("name", sorted(_HOT_INSTANCES))
def test_hot_object_rejects_ad_hoc_attributes(name):
    """The behavioural face of the same guard: slotted objects refuse
    attributes outside their declared fields.  (Frozen slotted
    dataclasses surface the refusal as TypeError from their generated
    ``__setattr__`` on this interpreter; plain slots raise
    AttributeError.)"""
    obj = _HOT_INSTANCES[name]()
    with pytest.raises((AttributeError, TypeError)):
        obj.sneaky_new_attribute = 1
