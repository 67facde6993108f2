"""ResilientDHT: retries + timeout budgets + circuit breaking over any DHT.

The paper's lookup algorithm reads a failed DHT-get *structurally*
("this internal node does not exist", Alg. 2), so a lost reply must
never pass for an absent name.  The substrate contract keeps the two
apart — a get answers a value, ``None`` (a live peer answered "not
stored"), or :data:`~repro.dht.base.NO_REPLY` (no answer arrived) — and
this wrapper acts on it at the substrate boundary, staying inside the
over-DHT philosophy — it composes over any :class:`~repro.dht.base.DHT`,
including other wrappers:

* **Retries** (:class:`~repro.resilience.policy.RetryPolicy`): a get
  that got ``NO_REPLY`` is retried up to the attempt budget, recovering
  a dropped reply with probability ``1 - p^k``; a ``None`` is an answer
  and is never retried, so an absent name costs one get.  Every
  operation retries on :class:`~repro.errors.DHTError` — except a
  nested wrapper's fast rejection, which no operation retries.
* **Per-operation timeout budgets**: cumulative (simulated) backoff per
  operation is capped, so one key cannot burn unbounded time.
* **Circuit breaker** (:class:`~repro.resilience.breaker.CircuitBreaker`):
  consecutive *infrastructure errors* (``DHTError`` raised by the inner
  substrate — injected put/remove failures, routing errors) trip the
  breaker; further operations fail fast with
  :class:`~repro.errors.CircuitOpenError` until the sim-clock cool-down
  half-opens it.  Neither ``None`` nor ``NO_REPLY`` feeds the breaker:
  an absent key is a valid answer, and a lost reply on a lossy network
  is an availability event to retry, not evidence that the substrate
  is down.

Stacking order matters and is free to the caller:
``ResilientDHT(ReplicatedDHT(FaultyDHT(...)))`` retries the whole
replica fan-out (each attempt fails over across replicas), which is the
recommended composition for availability experiments.

Cost accounting is honest: every retry attempt that reaches the
substrate is charged there as a normal routed operation, and the shared
:class:`~repro.dht.metrics.MetricsRecorder` additionally counts
``retries``, ``breaker_trips`` and ``breaker_rejections`` so experiments
can report lookup-cost inflation next to availability.

Time: the wrapper advances the breaker's
:class:`~repro.sim.clock.Clock` (its own when no breaker is given) by
one virtual second per operation plus each backoff delay —
deterministic and self-contained.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

import numpy as np

from repro.dht.base import DHT, NO_REPLY
from repro.dht.kernel import DelegatingDHT
from repro.errors import CircuitOpenError, DHTError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import RetryPolicy
from repro.sim.rng import derive_seed

__all__ = ["ResilientDHT"]

T = TypeVar("T")


class ResilientDHT(DelegatingDHT):
    """Compose retries, timeout budgets, and a circuit breaker over a DHT.

    Args:
        inner: Any substrate (or wrapper stack) implementing the DHT
            interface.
        policy: Retry/backoff budget; defaults to
            :data:`~repro.resilience.policy.DEFAULT_RETRY_POLICY`.
        breaker: Circuit breaker, whose clock the wrapper advances; a
            default one (on a fresh clock) when omitted.
        seed: Root seed for the backoff-jitter stream; derived via
            :func:`repro.sim.rng.derive_seed` so it never collides with
            other consumers.
    """

    #: Virtual seconds the clock advances per operation (including fast
    #: rejections, so an open breaker can reach its cool-down unaided).
    OP_TICK = 1.0

    def __init__(
        self,
        inner: DHT,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(inner)
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.clock = self.breaker.clock
        self._rng = np.random.default_rng(derive_seed(seed, "resilience"))
        # Local statistics (the shared metrics aggregate across wrappers).
        self.retries = 0
        #: Gets whose attempt budget ran out on lost replies.
        self.exhausted_gets = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    # Retry machinery
    # ------------------------------------------------------------------

    def _tick(self, seconds: float) -> None:
        """Advance the breaker's clock."""
        self.clock.advance_to(self.clock.now + seconds)

    def _gate(self, key: str) -> None:
        """Fail fast when the breaker is open (nothing is routed)."""
        self._tick(self.OP_TICK)
        if not self.breaker.allows():
            self.rejections += 1
            self.metrics.record_breaker_rejection()
            raise CircuitOpenError(
                f"circuit open: operation on {key!r} rejected "
                f"(cool-down {self.breaker.reset_timeout}s)"
            )

    def _record_failure(self) -> None:
        """Feed one infrastructure failure to the breaker, counting a
        trip in the shared metrics when it opens."""
        if self.breaker.record_failure():
            self.metrics.record_breaker_trip()

    def _next_backoff(self, retry: int, spent: float) -> float | None:
        """Backoff before retry ``retry``, or ``None`` when the attempt
        or timeout budget is exhausted."""
        if retry >= self.policy.max_retries:
            return None
        delay = self.policy.backoff(retry, self._rng)
        budget = self.policy.timeout_budget
        if budget is not None and spent + delay > budget:
            return None
        return delay

    def _with_retries(self, operation: Callable[..., T], *args: Any) -> T:
        """Run ``operation(*args)`` — the one retry loop of all three ops.

        A typed :class:`DHTError` feeds the breaker and is retried while
        budget remains; the terminal failure re-raises it.  A fast
        rejection (an inner breaker's :class:`CircuitOpenError`) is
        never retried and never fed to this breaker.  A ``NO_REPLY``
        (only a get returns one) is retried without consulting the
        breaker and returned once the budget is spent; any other result
        — ``None`` included — is an answer and ends the loop.
        """
        retry = 0
        spent = 0.0
        while True:
            try:
                result = operation(*args)
            except CircuitOpenError:
                raise  # never retry a fast rejection
            except DHTError:
                self._record_failure()
                delay = self._next_backoff(retry, spent)
                if delay is None:
                    raise
            else:
                if result is not NO_REPLY:
                    self.breaker.record_success()
                    return result
                delay = self._next_backoff(retry, spent)
                if delay is None:
                    self.exhausted_gets += 1
                    return result
            self.retries += 1
            self.metrics.record_retry()
            self._tick(delay)
            spent += delay
            retry += 1

    # ------------------------------------------------------------------
    # DHT interface
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        self._gate(key)
        self._with_retries(self.inner.put, key, value)

    def get(self, key: str) -> Any | None:
        self._gate(key)
        return self._with_retries(self.inner.get, key)

    def remove(self, key: str) -> Any | None:
        self._gate(key)
        return self._with_retries(self.inner.remove, key)

    # ``local_write`` involves no network (no retries, no breaker) and
    # introspection is oracle access — both delegate via DelegatingDHT.
