"""Deterministic open-loop serving engine over the simulated clock.

The asyncio and threaded front-ends (:mod:`repro.serve.frontend`) give
real concurrency but schedule at the mercy of the host; their numbers
are not gateable.  :class:`ServeEngine` is the third, deterministic
front-end over the same :class:`~repro.serve.service.Dispatcher`, under
a discrete-event model where everything — arrival instants, batch
service times, queueing delay — is priced in simulated seconds:

* requests arrive at the instants the seeded workload generator drew;
* one batch occupies the service for its routed rounds times
  ``step_seconds`` — the cost model already used everywhere else: a
  parallel routed round is the latency unit;
* a request's latency is completion minus arrival, so p99 picks up the
  queueing delay behind slow batches, exactly what an open-loop system
  exposes.

The result is a pure function of ``(index state, arrivals, config)``:
the serving benchgate (``BENCH_serve.json``) banks its throughput, p99,
and routed-op counts, and the coalescing saving is a gated number
instead of a plot.

Admission is the dispatcher's: the engine turns its typed
:class:`~repro.errors.OverloadError` into a ``Status.REJECTED``
response, with nothing routed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError, OverloadError
from repro.serve.service import Dispatcher, Pending, Response, Status
from repro.serve.workload import Arrival

__all__ = ["ServeEngine", "ServeResult"]


@dataclass(slots=True)
class ServeResult:
    """Everything one engine run produced.

    Attributes:
        responses: One per arrival, in arrival order (rejections
            included, with ``Status.REJECTED`` and zero latency).
        executed_order: Arrival indices in the order the service
            actually executed them — replaying the requests serially in
            this order must reproduce identical answers and index state
            (``tests/test_serve.py`` pins it).
        batches: Batches executed.
        rounds: Total parallel routed rounds across all batches.
        routed_ops: Routed DHT operations charged while serving.
        coalesced_saved: Routed gets avoided by cross-request dedup.
        rejected: Arrivals refused by admission control.
        sim_seconds: Simulated time from first arrival to last
            completion.
        percentiles: p50/p90/p99 of completed-request latencies.
    """

    responses: list[Response]
    executed_order: list[int] = field(default_factory=list)
    batches: int = 0
    rounds: int = 0
    routed_ops: int = 0
    coalesced_saved: int = 0
    rejected: int = 0
    sim_seconds: float = 0.0
    percentiles: dict[str, float] = field(default_factory=dict)


class ServeEngine(Dispatcher):
    """The deterministic front-end: admit → batch → execute → advance.

    The engine alternates two phases.  While the service is idle it
    advances the clock to the next arrival and admits everything that
    has arrived.  It then has the dispatcher form and execute one
    head-of-line batch (which advances the clock by the batch's service
    time) and admits the arrivals that landed meanwhile.  Arrival
    instants and indices are the generated ones, nothing runs
    concurrently, and a request's waiter is its slot in the response
    list.  Head-of-line order is never reordered, which is what makes
    the executed order a serialization.
    """

    def _resolve(self, pending: Pending) -> None:
        if pending.failure is not None:
            raise pending.failure
        pending.waiter[pending.index] = pending.response

    def run(self, arrivals: Sequence[Arrival]) -> ServeResult:
        """Serve an arrival sequence to completion."""
        for earlier, later in zip(arrivals, list(arrivals)[1:]):
            if later.time < earlier.time:
                raise ConfigurationError(
                    "arrivals must be sorted by time "
                    f"({later.time} < {earlier.time})"
                )
        responses: list[Response | None] = [None] * len(arrivals)
        result = ServeResult(responses=[])
        self.executed_order = result.executed_order
        upcoming = deque(arrivals)
        started = self.clock.now

        while upcoming or self._queue:
            if not self._queue:
                # Idle: jump to the next arrival instant.
                self.clock.advance_to(max(self.clock.now, upcoming[0].time))
            while upcoming and upcoming[0].time <= self.clock.now:
                arrival = upcoming.popleft()
                try:
                    self.admit(
                        arrival.request, responses, arrival.time, arrival.index
                    )
                except OverloadError as exc:
                    responses[arrival.index] = Response(
                        Status.REJECTED, error=str(exc)
                    )
                    result.rejected += 1

            executed = self.execute(self.next_batch())
            if executed is None:  # pragma: no cover - _resolve raised the bug
                break
            result.batches += 1
            result.rounds += executed.rounds
            result.routed_ops += executed.routed_ops
            result.coalesced_saved += executed.coalesced_saved

        missing = [i for i, r in enumerate(responses) if r is None]
        if missing:  # defensive: every arrival must resolve exactly once
            raise ConfigurationError(
                f"arrivals never resolved: {missing[:5]}..."
            )
        result.responses = [r for r in responses if r is not None]
        result.sim_seconds = self.clock.now - started
        result.percentiles = self.index.dht.metrics.latency_percentiles()
        return result
