"""Churn driver: a Poisson join/leave process over a Chord overlay.

Models the peer dynamism the paper motivates LHT with (§1): peers arrive
and depart continuously while the index keeps serving queries.  The driver
schedules joins, graceful leaves, and crashes through the discrete-event
simulator and interleaves Chord's periodic stabilization, so the overlay
is repaired the way a deployed ring would be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.chord import ChordDHT
from repro.errors import ConfigurationError
from repro.sim.events import Simulator

__all__ = ["ChurnConfig", "ChurnDriver"]


@dataclass(frozen=True, slots=True)
class ChurnConfig:
    """Churn process parameters.

    Attributes:
        join_rate: Poisson rate of node arrivals (events per sim second).
        leave_rate: Poisson rate of departures.
        crash_fraction: Fraction of departures that are crashes (no key
            handoff) rather than graceful leaves.
        stabilize_period: Period of each node's stabilization tick.
        min_peers: Floor below which departures are suppressed.
    """

    join_rate: float = 0.1
    leave_rate: float = 0.1
    crash_fraction: float = 0.5
    stabilize_period: float = 1.0
    min_peers: int = 4

    def __post_init__(self) -> None:
        if self.join_rate < 0 or self.leave_rate < 0:
            raise ConfigurationError("churn rates must be non-negative")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ConfigurationError("crash_fraction must be in [0, 1]")


class ChurnDriver:
    """Drives joins/leaves/crashes and stabilization on a Chord overlay."""

    def __init__(
        self,
        dht: ChordDHT,
        simulator: Simulator,
        rng: np.random.Generator,
        config: ChurnConfig | None = None,
    ) -> None:
        self.dht = dht
        self.simulator = simulator
        self.rng = rng
        self.config = config or ChurnConfig()
        #: Churn events so far, by kind.
        self.joins = 0
        self.leaves = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def start(self, until: float) -> None:
        """Schedule the churn process and stabilization up to ``until``."""
        if self.config.join_rate > 0:
            self._schedule_next_join(until)
        if self.config.leave_rate > 0:
            self._schedule_next_leave(until)
        self.simulator.schedule_every(
            self.config.stabilize_period, self._stabilize_tick, until=until
        )

    def _schedule_next_join(self, until: float) -> None:
        delay = float(self.rng.exponential(1.0 / self.config.join_rate))
        when = self.simulator.now + delay
        if when <= until:
            self.simulator.schedule_at(when, lambda: self._join(until))

    def _schedule_next_leave(self, until: float) -> None:
        delay = float(self.rng.exponential(1.0 / self.config.leave_rate))
        when = self.simulator.now + delay
        if when <= until:
            self.simulator.schedule_at(when, lambda: self._leave(until))

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def _join(self, until: float) -> None:
        self.dht.join()
        self.joins += 1
        self._schedule_next_join(until)

    def _leave(self, until: float) -> None:
        if self.dht.n_peers > self.config.min_peers:
            ids = self.dht.node_ids
            victim = ids[int(self.rng.integers(0, len(ids)))]
            if float(self.rng.random()) < self.config.crash_fraction:
                self.dht.fail(victim)
                self.crashes += 1
            else:
                self.dht.leave(victim, graceful=True)
                self.leaves += 1
        self._schedule_next_leave(until)

    def _stabilize_tick(self) -> None:
        self.dht.stabilize_all(rounds=1, fingers_per_round=2)
