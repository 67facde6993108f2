"""The serving layer: concurrent front-ends over the LHT index.

Turns :class:`~repro.core.index.LHTIndex` into a service: many client
sessions submitting lookups, inserts, removes, and range queries
concurrently, with bounded admission (typed
:class:`~repro.errors.OverloadError` rejections), coalescing of
concurrent point lookups onto batched ``multi_get`` rounds, and
request-level metrics (latency percentiles, queue depth, rejection
counts) wired into the shared
:class:`~repro.dht.metrics.MetricsRecorder`.

Three front-ends are thin adapters over one
:class:`~repro.serve.service.Dispatcher` (queue, admission, batching,
:func:`~repro.serve.service.execute_batch`, clock, latency stamping):

* :class:`~repro.serve.engine.ServeEngine` — deterministic open-loop
  discrete-event run; the one the serving benchgate measures;
* :class:`~repro.serve.frontend.AsyncFrontend` — asyncio sessions;
* :class:`~repro.serve.frontend.ThreadedFrontend` — thread sessions.

See ``docs/serving.md`` for the architecture and guarantees.
"""

from repro.serve.engine import ServeEngine, ServeResult
from repro.serve.frontend import AsyncFrontend, ThreadedFrontend
from repro.serve.service import (
    BatchResult,
    Response,
    ServeConfig,
    Status,
    execute_batch,
    serial_answer,
)
from repro.serve.workload import Arrival, WorkloadConfig, generate_workload
from repro.workloads.trace import Request, RequestKind

__all__ = [
    "Arrival",
    "AsyncFrontend",
    "BatchResult",
    "Request",
    "RequestKind",
    "Response",
    "ServeConfig",
    "ServeEngine",
    "ServeResult",
    "Status",
    "ThreadedFrontend",
    "WorkloadConfig",
    "execute_batch",
    "generate_workload",
    "serial_answer",
]
