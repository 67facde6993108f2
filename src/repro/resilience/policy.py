"""Seeded retry policy: exponential backoff with deterministic jitter.

Retries are the first line of defence against the transient failures the
paper motivates LHT with (§1).  A dropped DHT-get surfaces as
:data:`~repro.dht.base.NO_REPLY`, distinct from the ``None`` of "this
internal node does not exist" (Alg. 2's structural reading), so only
lost replies are asked again — an absent name is answered once.  With
an independent per-attempt drop probability ``p`` and ``k`` total
attempts, the probability that a get is still unanswered is ``p^k``.

All jitter draws flow through an explicitly seeded
:class:`numpy.random.Generator` (see :func:`repro.sim.rng.derive_seed`),
so a replayed workload performs bit-identical backoff decisions — the
same property rule LHT002 enforces for the rest of the simulation core.
Delays are *virtual* (simulated seconds): the wrapper never sleeps, it
accounts the wait on its clock so breaker schedules and timeout budgets
stay meaningful inside a discrete-event run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY", "NO_RETRY_POLICY"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Per-operation retry budget with exponential backoff + jitter.

    Attributes:
        max_attempts: Total tries per operation (1 = no retries).
        base_delay: Backoff before the first retry, in simulated seconds.
        multiplier: Exponential growth factor between consecutive delays.
        max_delay: Cap on a single backoff delay.
        jitter: Fraction of each delay randomized away: the delay is drawn
            uniformly from ``[delay * (1 - jitter), delay]``.  ``0`` makes
            backoff fully deterministic even without the seeded stream.
        timeout_budget: Per-operation cap on *cumulative* backoff delay
            (the "per-key timeout budget"): once the accumulated waits
            would exceed it, remaining attempts are forfeited.  ``None``
            disables the cap.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    timeout_budget: float | None = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1: {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1]: {self.jitter}")
        if self.timeout_budget is not None and self.timeout_budget < 0:
            raise ConfigurationError(
                f"timeout_budget must be non-negative: {self.timeout_budget}"
            )

    @property
    def max_retries(self) -> int:
        """Retries after the initial attempt (``max_attempts - 1``)."""
        return self.max_attempts - 1

    def backoff(self, retry: int, rng: np.random.Generator) -> float:
        """Simulated delay before retry number ``retry`` (0-based).

        Exponential schedule with the configured cap, randomized by the
        jitter fraction from the seeded generator.
        """
        if retry < 0:
            raise ConfigurationError(f"retry index must be >= 0: {retry}")
        delay = min(self.max_delay, self.base_delay * self.multiplier**retry)
        if self.jitter:
            delay *= 1.0 - self.jitter * float(rng.random())
        return delay

    def residual_failure(self, drop_rate: float) -> float:
        """Probability a get is still unanswered after the full attempt
        budget, for an independent per-attempt drop probability."""
        if not 0.0 <= drop_rate <= 1.0:
            raise ConfigurationError(f"drop rate must be in [0, 1]: {drop_rate}")
        return drop_rate**self.max_attempts


#: The default policy used by :class:`repro.resilience.ResilientDHT`:
#: 5 attempts leave a 0.2^5 = 0.032% residual at a 20% drop rate.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: A pass-through policy: one attempt, no backoff (useful as the control
#: arm of availability experiments).
NO_RETRY_POLICY = RetryPolicy(max_attempts=1, timeout_budget=None)
