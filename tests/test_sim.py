"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import (
    Clock,
    EventQueue,
    LatencyModel,
    RngStreams,
    Simulator,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advances(self):
        clock = Clock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_rejects_backwards(self):
        clock = Clock(start=3.0)
        with pytest.raises(SimulationError):
            clock.advance_to(2.0)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired: list[str] = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        queue = EventQueue()
        fired: list[int] = []
        for i in range(5):
            queue.push(1.0, lambda i=i: fired.append(i))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancellation(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert len(queue) == 0
        assert queue.pop() is None

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        fired: list[float] = []
        sim.schedule_in(1.5, lambda: fired.append(sim.now))
        sim.schedule_at(0.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.5, 1.5]
        assert sim.events_processed == 2

    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        fired: list[float] = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run_until(2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0

    def test_rejects_past_and_negative(self):
        sim = Simulator()
        sim.clock.advance_to(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    def test_periodic(self):
        sim = Simulator()
        fired: list[float] = []
        sim.schedule_every(1.0, lambda: fired.append(sim.now), until=4.5)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_periodic_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_every(0.0, lambda: None)

    def test_runaway_guard(self):
        sim = Simulator()

        def reschedule() -> None:
            sim.schedule_in(0.001, reschedule)

        sim.schedule_in(0.001, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestLatencyModel:
    def test_latency_positive(self):
        rng = np.random.default_rng(1)
        model = LatencyModel(median=0.05, sigma=0.5, floor=0.001)
        for _ in range(100):
            assert model.sample(rng) >= 0.001


class TestRngStreams:
    def test_streams_are_deterministic(self):
        a = RngStreams(7).stream("x").random(5)
        b = RngStreams(7).stream("x").random(5)
        assert (a == b).all()

    def test_streams_are_independent(self):
        streams = RngStreams(7)
        a = streams.stream("x").random(5)
        b = streams.stream("y").random(5)
        assert not (a == b).all()

    def test_same_stream_object_reused(self):
        streams = RngStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_fork(self):
        a = RngStreams(7).fork("child").stream("x").random(3)
        b = RngStreams(7).fork("child").stream("x").random(3)
        c = RngStreams(7).stream("x").random(3)
        assert (a == b).all()
        assert not (a == c).all()
