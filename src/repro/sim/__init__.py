"""Deterministic discrete-event simulation kernel.

Provides the virtual clock, event queue, seeded random streams, and the
message-latency model used by the DHT substrates and experiments.  Everything is deterministic under a fixed seed.
"""

from repro.sim.clock import Clock
from repro.sim.events import Event, EventQueue, Simulator
from repro.sim.network import LatencyModel
from repro.sim.rng import RngStreams

__all__ = [
    "Clock",
    "Event",
    "EventQueue",
    "Simulator",
    "LatencyModel",
    "RngStreams",
]
