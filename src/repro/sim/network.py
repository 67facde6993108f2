"""Message latency model for the simulated overlays.

The paper's metrics (DHT-lookup counts, parallel steps) are intentionally
independent of physical latency; :class:`LatencyModel` is what converts
them to simulated seconds (``repro.experiments.latency_study``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LatencyModel"]


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """One-way message latency: lognormal around a median, plus a floor.

    Lognormal heavy tails are the standard stand-in for wide-area RTT
    distributions in P2P simulation; parameters are in simulated seconds.
    """

    median: float = 0.05
    sigma: float = 0.3
    floor: float = 0.001

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one latency value."""
        return max(self.floor, float(rng.lognormal(np.log(self.median), self.sigma)))
