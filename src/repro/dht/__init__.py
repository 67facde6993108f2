"""DHT substrates behind one generic put/get interface.

LHT (and the PHT baseline) run unchanged over any of these; see
:class:`repro.dht.base.DHT`.
"""

from repro.dht.accesslog import AccessLoggingDHT
from repro.dht.base import DHT, NO_REPLY
from repro.dht.can import CANDHT, CANNode, Zone
from repro.dht.chord import ChordDHT, ChordNode
from repro.dht.faulty import FaultyDHT
from repro.dht.churn import ChurnConfig, ChurnDriver
from repro.dht.hashing import ID_BITS, ID_SPACE, hash_key, ring_distance
from repro.dht.kademlia import KademliaDHT, KademliaNode
from repro.dht.kernel import (
    DelegatingDHT,
    PeerStore,
    PlacementPolicy,
    SubstrateBase,
)
from repro.dht.koorde import KoordeDHT, KoordeNode
from repro.dht.local import LocalDHT
from repro.dht.metrics import MetricsRecorder, MetricsSnapshot
from repro.dht.onehop import OneHopDHT, OneHopNode
from repro.dht.pastry import PastryDHT, PastryNode
from repro.dht.placement import (
    ClosestIdsPolicy,
    LeafSetPolicy,
    SuccessorListPolicy,
    TableSlicePolicy,
    ZoneNeighborsPolicy,
)
from repro.dht.replicated import ReplicatedDHT, replica_layer
from repro.dht.serializing import SerializingDHT
from repro.dht.tapestry import TapestryDHT, TapestryNode

__all__ = [
    "AccessLoggingDHT",
    "DHT",
    "NO_REPLY",
    "CANDHT",
    "CANNode",
    "Zone",
    "ChordDHT",
    "ChordNode",
    "FaultyDHT",
    "ChurnConfig",
    "ChurnDriver",
    "ID_BITS",
    "ID_SPACE",
    "hash_key",
    "ring_distance",
    "KademliaDHT",
    "KademliaNode",
    "DelegatingDHT",
    "PeerStore",
    "PlacementPolicy",
    "SubstrateBase",
    "SuccessorListPolicy",
    "TableSlicePolicy",
    "LeafSetPolicy",
    "ZoneNeighborsPolicy",
    "ClosestIdsPolicy",
    "replica_layer",
    "KoordeDHT",
    "KoordeNode",
    "LocalDHT",
    "MetricsRecorder",
    "MetricsSnapshot",
    "OneHopDHT",
    "OneHopNode",
    "PastryDHT",
    "PastryNode",
    "ReplicatedDHT",
    "SerializingDHT",
    "TapestryDHT",
    "TapestryNode",
]
