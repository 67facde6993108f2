"""Concurrent front-ends: many client sessions, one dispatcher.

Two thin adapters put real concurrency primitives — an asyncio event
loop, a pool of threads — in front of the one
:class:`~repro.serve.service.Dispatcher`, which owns admission,
batching, execution, the clock and the executed order.  An adapter
decides only what differs:

* how a waiter is resolved — an ``asyncio.Future`` / a
  ``threading.Event``;
* what provides mutual exclusion around admission and batch formation —
  the event loop / one lock;
* which single thread of control drains the queue — a drainer task / a
  daemon thread.  That single-dispatcher rule *is* the thread-safety
  story: the index and substrates need no locks because concurrency
  stops at the queue.

Time stays simulated (lint rule LHT001 applies to this package), so
both agree with :class:`~repro.serve.engine.ServeEngine` on the cost
model even though their interleavings are scheduler-dependent; whatever
order the scheduler produced, serial replay in the executed order must
reproduce the same answers (``tests/test_serve.py``).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.core.index import LHTIndex
from repro.errors import ConfigurationError
from repro.serve.service import (
    Dispatcher,
    Pending,
    Request,
    Response,
    ServeConfig,
)
from repro.sim.clock import Clock

__all__ = ["AsyncFrontend", "ThreadedFrontend"]


class AsyncFrontend(Dispatcher):
    """Asyncio front-end: sessions are coroutines, one drainer task.

    Usage::

        async with AsyncFrontend(index) as frontend:
            record = await frontend.submit(Request(RequestKind.LOOKUP, key))

    ``submit`` raises :class:`~repro.errors.OverloadError` synchronously
    when the window is full.  The drainer executes batches inline (the
    batching core is synchronous and fast at simulation scale) and
    yields to the loop between batches so submitters interleave.
    """

    _wakeup: asyncio.Event | None = None
    _drainer: asyncio.Task[None] | None = None

    async def __aenter__(self) -> "AsyncFrontend":
        self._wakeup = asyncio.Event()
        self._drainer = asyncio.get_running_loop().create_task(self._drain())
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain outstanding requests, then stop the dispatcher."""
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._drainer is not None:
            await self._drainer
            self._drainer = None

    async def submit(self, request: Request) -> Response:
        """Submit one request; resolves when the service answers it."""
        if self._wakeup is None:
            raise ConfigurationError(
                "AsyncFrontend must be entered (async with) before submit"
            )
        future: asyncio.Future[Response] = (
            asyncio.get_running_loop().create_future()
        )
        self.admit(request, future)  # may raise OverloadError
        self._wakeup.set()
        return await future

    def _resolve(self, pending: Pending) -> None:
        future = pending.waiter
        if future.cancelled():
            return
        if pending.failure is not None:
            future.set_exception(pending.failure)
        else:
            future.set_result(pending.response)

    async def _drain(self) -> None:
        if self._wakeup is None:  # pragma: no cover - guarded by __aenter__
            raise ConfigurationError("drainer started before __aenter__")
        while True:
            if not self._queue:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            self.execute(self.next_batch())
            # Yield so submitters waiting on the loop get to run between
            # batches — this is where concurrent lookups pile into the
            # queue and the next batch coalesces them.
            await asyncio.sleep(0)


class ThreadedFrontend(Dispatcher):
    """Thread-pool front-end: sessions are threads, one dispatcher.

    Usage::

        with ThreadedFrontend(index) as frontend:
            record = frontend.submit(Request(RequestKind.LOOKUP, key))

    ``submit`` blocks the calling thread until the service answers (or
    raises :class:`~repro.errors.OverloadError` immediately when the
    window is full).  All shared state is guarded by one lock; the
    dispatcher releases it while executing a batch, so submitters can
    enqueue — and admission can reject — concurrently with execution.
    """

    def __init__(
        self,
        index: LHTIndex,
        config: ServeConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(index, config, clock)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._dispatcher: threading.Thread | None = None

    def __enter__(self) -> "ThreadedFrontend":
        self._dispatcher = threading.Thread(
            target=self._drain, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Drain outstanding requests, then stop the dispatcher."""
        with self._work:
            self._closed = True
            self._work.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None

    def submit(self, request: Request) -> Response:
        """Submit one request and block until the service answers."""
        if self._dispatcher is None:
            raise ConfigurationError(
                "ThreadedFrontend must be entered (with) before submit"
            )
        done = threading.Event()
        with self._work:
            pending = self.admit(request, done)  # may raise OverloadError
            self._work.notify_all()
        done.wait()
        if pending.failure is not None:
            raise pending.failure
        if pending.response is None:  # pragma: no cover - defensive
            raise ConfigurationError("request completed without a response")
        return pending.response

    def _resolve(self, pending: Pending) -> None:
        pending.waiter.set()

    def _drain(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._closed:
                    self._work.wait()
                if not self._queue and self._closed:
                    return
                batch = self.next_batch()
            # Lock released: execution proceeds while submitters enqueue.
            self.execute(batch)
