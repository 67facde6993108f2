"""Responses, the coalescing batch executor, and the one dispatcher.

The serving layer turns :class:`~repro.core.index.LHTIndex` from a
library driven by one synchronous client into a *service*: many client
sessions submit point lookups, inserts, removes, and range queries
concurrently, and one execution core drives the index safely.  This
module holds everything the three front-ends share:

* :class:`Response` — the service's wire-shaped reply to a
  :class:`~repro.workloads.trace.Request`, and :func:`serial_answer`,
  a request's one serial meaning on the plain index API;
* :class:`ServeConfig` — admission-control bounds (in-flight window +
  waiting queue) and the simulated-latency model;
* :func:`execute_batch` — the heart of the layer: a maximal run of
  concurrent point lookups is executed as *lock-stepped* probe plans
  (``index.lookup_plan``: Alg. 2, behind the leaf cache if any), each
  round's probe names deduplicated into one
  :meth:`~repro.dht.base.DHT.multi_get`.
  Because concurrent sessions share hot keys (and different keys share
  shallow name classes), the batched rounds issue strictly fewer routed
  gets than per-request sequential search — the saving the
  ``BENCH_serve.json`` gate banks — while answers stay byte-identical:
  both paths run the exact same search logic;
* :class:`Dispatcher` — the queue, the admission rule, batch formation,
  the simulated-clock advance, latency stamping and the executed order,
  once, behind all three front-ends.

Served lookups finish as ``exact_match_checked`` does
(``index.finish_lookup``: replica re-drive once, then PRESENT / ABSENT /
UNREACHABLE); UNREACHABLE is ``Status.ERROR``, and so is a request the
index refuses (a typed :class:`~repro.errors.ReproError`, e.g. a key
outside ``[0, 1)``) — neither takes the dispatcher down.

Mutations are never coalesced: a write acts as a barrier between read
runs, so the service's execution order is a *serialization* — replaying
the same requests in executed order through :func:`serial_answer`
reproduces the identical index state and answers
(``tests/test_serve.py`` pins this).

Deterministic-core rules apply (the ``serve`` package is hermetic by
lint rule LHT001/LHT007): no wall clock, no global randomness — time is
the simulated :class:`~repro.sim.clock.Clock` the dispatcher advances.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, cast

from repro.core.index import LHTIndex
from repro.core.results import LookupResult, MatchStatus
from repro.errors import ConfigurationError, OverloadError, ReproError
from repro.sim.clock import Clock
from repro.workloads.trace import Request, RequestKind

if TYPE_CHECKING:
    from repro.baselines.pht import PHTIndex

__all__ = [
    "BatchResult",
    "Dispatcher",
    "Pending",
    "Response",
    "ServeConfig",
    "Status",
    "execute_batch",
    "serial_answer",
]


class Status(enum.Enum):
    """Terminal states of a submitted request."""

    OK = "ok"
    ERROR = "error"  # typed ReproError surfaced as data
    REJECTED = "rejected"  # admission control; nothing was routed


@dataclass(slots=True)
class Response:
    """The service's answer to one request.

    ``answer`` is what :func:`serial_answer` gives for the request on
    the plain index API.  ``latency`` is simulated seconds from arrival
    to completion; ``dht_lookups`` the routed operations this request
    consumed (coalesced lookups share probes, so the routed total is
    the index's :class:`~repro.dht.metrics.MetricsRecorder`'s count,
    not the sum of these).
    """

    status: Status
    answer: Any = None
    error: str | None = None
    latency: float = 0.0
    dht_lookups: int = 0


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Admission and latency-model parameters.

    Attributes:
        max_in_flight: Upper bound on requests executed concurrently
            (the size of one coalesced batch).
        max_queue: Upper bound on requests waiting for a slot; an
            arrival past it is rejected with
            :class:`~repro.errors.OverloadError`.
        step_seconds: Simulated duration of one parallel routed round —
            the latency unit everything else is priced in.
    """

    max_in_flight: int = 8
    max_queue: int = 64
    step_seconds: float = 0.01

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1: {self.max_in_flight}"
            )
        if self.max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0: {self.max_queue}"
            )
        if self.step_seconds <= 0:
            raise ConfigurationError(
                f"step_seconds must be > 0: {self.step_seconds}"
            )


@dataclass(slots=True)
class BatchResult:
    """What one executed batch produced.

    Attributes:
        responses: One per request, in batch order (latency unset — the
            front-end stamps it, because queueing delay is its to know).
        rounds: Parallel routed rounds the batch took (its simulated
            service time is ``rounds * step_seconds``).

    Routed operations and coalesced gets are counted once, by the
    index's :class:`~repro.dht.metrics.MetricsRecorder`.
    """

    responses: list[Response]
    rounds: int


def serial_answer(index: LHTIndex | PHTIndex, request: Request) -> Any:
    """The plain-API answer to ``request``: the one serial meaning of a
    request, which serving it must reproduce.

    The found :class:`~repro.core.bucket.Record` (or ``None``) for a
    lookup, the inserted leaf's bits, the ``deleted`` flag for a remove,
    and the record tuple for a range.  Typed errors propagate.
    """
    if request.kind is RequestKind.LOOKUP:
        return index.exact_match(request.key)[0]
    if request.kind is RequestKind.INSERT:
        return index.insert(request.key, request.value).leaf.bits
    if request.kind is RequestKind.REMOVE:
        return index.delete(request.key).deleted
    # Request.__post_init__ rejects a range without an upper bound.
    return tuple(index.range_query(request.key, cast(float, request.hi)).records)


def _failed(exc: ReproError) -> Response:
    """A typed failure is that request's answer, never an escaped
    exception that would take the dispatcher down (LHT010)."""
    return Response(Status.ERROR, error=f"{type(exc).__name__}: {exc}")


def _looked_up(
    index: LHTIndex, request: Request, routed: LookupResult
) -> Response:
    """Map the index's typed finish of one plan to a response."""
    result = index.finish_lookup(request.key, routed)
    if result.status is not MatchStatus.UNREACHABLE:
        response = Response(Status.OK, answer=result.record)
    else:
        response = Response(
            Status.ERROR, error=f"lookup of {request.key}: unreachable"
        )
    response.dht_lookups = result.dht_lookups
    return response


def _execute_reads(index: LHTIndex, requests: list[Request]) -> BatchResult:
    """Drive one probe plan per lookup, lock-stepped round by round.

    Each round collects every active plan's next probe name, issues the
    *unique* names as one batched round (``index.reads.round``), and
    feeds the shared replies back — so two sessions probing the same
    name class pay one routed get between them.  The round fails per
    key: a name that got no reply, or a typed error, is rescued from
    the replicas for the plans awaiting it alone, exactly as the
    direct path's read would be.
    """
    responses: list[Response | None] = [None] * len(requests)
    # (slot, plan, the name whose reply the plan awaits); a fresh plan
    # awaits "", whose "reply" of ``None`` primes it.
    plans = [
        (slot, index.lookup_plan(request.key), "")
        for slot, request in enumerate(requests)
    ]
    replies: dict[str, Any] = {"": None}
    rounds = 0
    saved = 0
    while True:
        waiting = []
        for slot, plan, name in plans:
            try:
                waiting.append((slot, plan, plan.send(replies[name])))
            except StopIteration as stop:
                responses[slot] = _looked_up(index, requests[slot], stop.value)
            except ReproError as exc:  # malformed request: nothing routed for it
                responses[slot] = _failed(exc)
        plans = waiting
        if not plans:
            break
        rounds += 1
        wanted = [name for _, _, name in plans]
        unique = list(dict.fromkeys(wanted))
        saved += len(wanted) - len(unique)
        replies = dict(zip(unique, index.reads.round(unique)))

    index.dht.metrics.record_batch(saved)
    return BatchResult(
        responses=[r for r in responses if r is not None],
        rounds=max(rounds, 1),
    )


def _execute_write(index: LHTIndex, request: Request) -> BatchResult:
    """Execute one mutation (or range query) serially via the index."""
    metrics = index.dht.metrics
    before = metrics.dht_lookups
    try:
        response = Response(Status.OK, answer=serial_answer(index, request))
    except ReproError as exc:
        response = _failed(exc)
    response.dht_lookups = metrics.dht_lookups - before
    metrics.record_batch(0)
    # A mutation's service time: its routed traffic is sequential from
    # the client's perspective (lookup probes then the put), so bill one
    # round per routed operation, floor one.
    return BatchResult(responses=[response], rounds=max(response.dht_lookups, 1))


def execute_batch(index: LHTIndex, requests: list[Request]) -> BatchResult:
    """Execute one admitted batch: either a run of reads or one write.

    The dispatcher guarantees the shape (all reads, or exactly one
    non-read); this function enforces it, because violating it would
    let a mutation race a coalesced round.  A :class:`ReproError` one
    request raises is answered ``Status.ERROR`` for that request alone.
    """
    if not requests:
        raise ConfigurationError("cannot execute an empty batch")
    if len(requests) > 1 and not all(r.is_read for r in requests):
        raise ConfigurationError(
            "a batch is either all reads or a single write"
        )
    if requests[0].is_read:
        return _execute_reads(index, requests)
    return _execute_write(index, requests[0])


@dataclass(slots=True)
class Pending:
    """One admitted request and the waiter its submitter handed in.

    Exactly one of ``response`` / ``failure`` is set before the waiter
    is resolved: the answer, or the bug that took the batch down.
    """

    request: Request
    arrival: float
    index: int
    waiter: Any  # asyncio.Future | threading.Event | the engine's list
    response: Response | None = None
    failure: Exception | None = None


class Dispatcher:
    """The one serving core behind every front-end.

    Owns the waiting queue, the admission rule, batch formation,
    execution, the simulated-clock advance, latency stamping and the
    executed order, so none of that can drift between front-ends.  A
    front-end subclasses it and decides only what differs: how a waiter
    is resolved (:meth:`_resolve`), what provides mutual exclusion
    around :meth:`admit` and :meth:`next_batch`, and where arrival
    instants come from (the clock, or the ones passed to :meth:`admit`).
    :meth:`execute` is for the single dispatching thread of control.
    """

    def __init__(
        self,
        index: LHTIndex,
        config: ServeConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.index = index
        self.config = config if config is not None else ServeConfig()
        self.clock = clock if clock is not None else Clock()
        self.executed_order: list[int] = []
        self._queue: deque[Pending] = deque()
        self._in_flight = 0
        self._submitted = 0
        self._closed = False

    def admit(
        self,
        request: Request,
        waiter: Any,
        arrival: float | None = None,
        index: int | None = None,
    ) -> Pending:
        """Enqueue ``request`` or raise :class:`OverloadError`.

        ``arrival`` and ``index`` default to the clock's now and the
        admission count; the deterministic engine passes the generated
        ones instead.  Nothing is routed on rejection.
        """
        if self._closed:
            raise ConfigurationError("front-end is closed")
        capacity = self.config.max_in_flight + self.config.max_queue
        if self._in_flight + len(self._queue) >= capacity:
            self.index.dht.metrics.record_rejection()
            raise OverloadError(
                f"serving window full ({capacity} in flight or queued); "
                "back off and retry"
            )
        pending = Pending(
            request=request,
            arrival=self.clock.now if arrival is None else arrival,
            index=self._submitted if index is None else index,
            waiter=waiter,
        )
        self._submitted += 1
        self._queue.append(pending)
        self.index.dht.metrics.record_queue_depth(len(self._queue))
        return pending

    def next_batch(self) -> list[Pending]:
        """Pop the head-of-line batch: a maximal run of point lookups up
        to ``max_in_flight``, or one mutation as a barrier."""
        batch = [self._queue.popleft()]
        if batch[0].request.is_read:
            while (
                self._queue
                and self._queue[0].request.is_read
                and len(batch) < self.config.max_in_flight
            ):
                batch.append(self._queue.popleft())
        self._in_flight = len(batch)
        return batch

    def execute(self, batch: list[Pending]) -> BatchResult | None:
        """Run one batch, advance the clock, stamp and resolve.

        An exception out of :func:`execute_batch` is a bug (typed
        errors are already ``Status.ERROR`` answers): it is handed to
        the batch's waiters, the dispatcher stops admitting, and
        ``None`` is returned; what was already queued is still served.
        """
        metrics = self.index.dht.metrics
        try:
            result = execute_batch(self.index, [p.request for p in batch])
        except Exception as bug:
            self._closed = True
            self._in_flight = 0
            for pending in batch:
                pending.failure = bug
                self._resolve(pending)
            return None
        # The window reopens before any waiter wakes: a resolved
        # submitter may re-admit at once and must not count this batch.
        self._in_flight = 0
        self.clock.advance_to(
            self.clock.now + result.rounds * self.config.step_seconds
        )
        now = self.clock.now
        for pending, response in zip(batch, result.responses):
            response.latency = now - pending.arrival
            metrics.record_request(response.latency)
            pending.response = response
            self.executed_order.append(pending.index)
            self._resolve(pending)
        return result

    def _resolve(self, pending: Pending) -> None:
        """Wake ``pending``'s submitter (front-end specific)."""
        raise NotImplementedError
