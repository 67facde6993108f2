"""Circuit breaker over a simulated clock (closed → open → half-open).

Retries recover *transient* faults; a breaker protects against
*sustained* ones.  When a substrate fails many operations in a row
(routing errors, injected put/remove failures — never a lost reply),
hammering it with full retry budgets multiplies the damage — the breaker
fails fast instead, then probes cautiously once a cool-down has passed.

State machine:

* **closed** — operations flow; consecutive failures are counted, a
  success resets the count.  Reaching ``failure_threshold`` trips the
  breaker to *open*.
* **open** — operations are rejected immediately (the wrapper raises
  :class:`repro.errors.CircuitOpenError` without routing anything).
  After ``reset_timeout`` simulated seconds the next operation is let
  through as a trial (*half-open*).
* **half-open** — one trial operation: success closes the breaker,
  failure re-opens it with a fresh cool-down.

Time comes from a :class:`repro.sim.clock.Clock` — never the wall clock
(rule LHT001) — so breaker schedules replay deterministically.  The
owning wrapper advances that clock (one virtual tick per operation plus
backoff delays; see :class:`repro.resilience.ResilientDHT`).
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError
from repro.sim.clock import Clock

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    """The three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker on a simulated clock.

    Args:
        failure_threshold: Consecutive failures that trip the breaker.
        reset_timeout: Simulated seconds the breaker stays open before
            allowing a half-open trial operation.
        clock: Time source; the breaker only ever *reads* it.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Clock | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ConfigurationError(
                f"reset_timeout must be positive: {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock or Clock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state, resolving open → half-open when the cool-down
        has elapsed."""
        if (
            self._state is BreakerState.OPEN
            and self.clock.now - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures recorded since the last success."""
        return self._consecutive_failures

    def allows(self) -> bool:
        """Whether the next operation may proceed (closed or half-open)."""
        return self.state is not BreakerState.OPEN

    # ------------------------------------------------------------------
    # Outcome recording (called by the owning wrapper)
    # ------------------------------------------------------------------

    def record_success(self) -> None:
        """A shielded operation completed: close and reset the breaker."""
        self._consecutive_failures = 0
        self._state = BreakerState.CLOSED

    def record_failure(self) -> bool:
        """A shielded operation failed; returns True if this tripped the
        breaker (closed → open) or re-opened a half-open one."""
        state = self.state
        self._consecutive_failures += 1
        if state is BreakerState.HALF_OPEN:
            # The trial failed: back to open with a fresh cool-down.
            self._state = BreakerState.OPEN
            self._opened_at = self.clock.now
            self.trips += 1
            return True
        if (
            state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._state = BreakerState.OPEN
            self._opened_at = self.clock.now
            self.trips += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CircuitBreaker(state={self.state.value}, "
            f"failures={self._consecutive_failures}/{self.failure_threshold})"
        )
