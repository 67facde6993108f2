"""Boundary spans: the benchmark's own tracing, interposed between layers.

The program has no tracing of its own yet (ROADMAP item 2), so the
traced pass wraps every layer of a stack in a :class:`SpanDHT` — a
``DelegatingDHT`` that timestamps each call crossing the boundary and
otherwise forwards it untouched.  Unlike a plain ``DelegatingDHT`` it
forwards ``multi_get``/``multi_put`` to the inner *batch* method, so the
layer below sees exactly the call sequence it would see without the
wrapper and every counter stays identical (``test_selfcheck.py`` pins
this).

Spans are kept as a flat in-memory event log — ``code, t`` on entry and
``-1, t`` on exit — because one list append per clock read is the
cheapest record Python offers; the nesting (parent, op id, self time) is
rebuilt from the log after the timed phase.
"""

from __future__ import annotations

from time import perf_counter_ns as now
from typing import Any, NamedTuple, Sequence

from repro.dht.base import DHT
from repro.dht.kernel import DelegatingDHT

__all__ = ["Span", "SpanDHT", "Tracer", "self_times", "span_methods"]

#: DHT calls that cross a layer boundary and are worth a span.  ``peek``
#: and ``peer_of`` are oracle reads, but wrappers call them on the hot
#: path (replica placement asks the substrate for the owner), so leaving
#: them out would bill the substrate's work to the wrapper above it.
DHT_METHODS = (
    "get", "put", "remove", "multi_get", "multi_put",
    "probe_get", "put_at", "remove_at",
    "local_write", "local_write_at", "peek", "peer_of",
)
_CODES_PER_BOUNDARY = 16
_EXIT = -1


class Span(NamedTuple):
    """One call across one boundary (``parent`` indexes the span list;
    ``op_id`` is the driver operation it served, -1 if no single one)."""

    name: str
    layer: str
    op_id: int
    parent: int | None
    start_ns: int
    end_ns: int


class Tracer:
    """The shared event log of one traced stack."""

    def __init__(self) -> None:
        self.events: list[int] = []
        self._boundaries: list[tuple[str, Sequence[str]]] = []

    def boundary(self, layer: str, names: Sequence[str]) -> int:
        """Register the boundary above ``layer`` whose calls are
        ``names``; returns the code of ``names[0]``."""
        if len(names) > _CODES_PER_BOUNDARY:
            raise ValueError(f"too many calls on one boundary: {names}")
        self._boundaries.append((layer, names))
        return (len(self._boundaries) - 1) * _CODES_PER_BOUNDARY

    def reset(self) -> None:
        """Forget everything recorded so far (set-up traffic)."""
        self.events.clear()  # in place: the wrappers hold a reference

    def spans(self, roots: Sequence[Span] = ()) -> list[Span]:
        """Rebuild the span list from the event log.

        ``roots`` are the driver's own operations in issue order (one
        caller, so they do not overlap); they come first in the result
        and adopt every top-level boundary span that falls inside their
        window.  Without roots — the serving dispatcher works for
        several requests at once — top-level spans stay parentless.
        """
        events = self.events
        spans: list[Any] = list(roots)
        open_spans: list[tuple[int, int, int, int | None, int]] = []
        op = 0
        for i in range(0, len(events), 2):
            code, t = events[i], events[i + 1]
            if code != _EXIT:
                if open_spans:
                    parent, op_id = open_spans[-1][0], open_spans[-1][4]
                else:
                    while op < len(roots) and roots[op].end_ns < t:
                        op += 1
                    inside = op < len(roots) and roots[op].start_ns <= t
                    parent, op_id = (op, roots[op].op_id) if inside else (None, -1)
                open_spans.append((len(spans), code, t, parent, op_id))
                spans.append(None)  # slot filled on exit
                continue
            slot, code, start, parent, op_id = open_spans.pop()
            layer, names = self._boundaries[code // _CODES_PER_BOUNDARY]
            spans[slot] = Span(
                names[code % _CODES_PER_BOUNDARY], layer, op_id, parent, start, t
            )
        return spans


def self_times(spans: Sequence[Span]) -> dict[str, tuple[int, int]]:
    """Per layer: (self time in ns, span count).

    A span's self time is its duration minus the part its direct child
    spans cover; children of one span never overlap (one thread).
    """
    own = [span.end_ns - span.start_ns for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end_ns - span.start_ns
    totals: dict[str, tuple[int, int]] = {}
    for span, ns in zip(spans, own):
        t, n = totals.get(span.layer, (0, 0))
        totals[span.layer] = (t + ns, n + 1)
    return totals


def _timed(target: Any, events: list[int], code: int) -> Any:
    def call(*args: Any, **kwargs: Any) -> Any:
        events.append(code)
        events.append(now())
        try:
            return target(*args, **kwargs)
        finally:
            events.append(_EXIT)
            events.append(now())

    return call


def span_methods(obj: Any, tracer: Tracer, layer: str, names: Sequence[str]) -> None:
    """Shadow ``obj``'s public methods ``names`` with span-recording
    instance attributes — a boundary above an object that is not a DHT
    (the serving layer calls the index)."""
    base = tracer.boundary(layer, names)
    for offset, name in enumerate(names):
        setattr(obj, name, _timed(getattr(obj, name), tracer.events, base + offset))


class SpanDHT(DelegatingDHT):
    """Timestamp every call into ``inner``; change nothing else."""

    def __init__(self, inner: DHT, tracer: Tracer, layer: str) -> None:
        super().__init__(inner)
        #: Keys handed down by ``multi_get``/``multi_put`` — with the
        #: single-key span count, the number of keys this layer routed.
        self.batched_keys = 0
        base = tracer.boundary(layer, DHT_METHODS)
        for offset, name in enumerate(DHT_METHODS):
            # Straight to the inner method (one frame, not two) except
            # for the batch calls, which count their keys below.
            owner = self if name.startswith("multi_") else inner
            setattr(self, name, _timed(getattr(owner, name), tracer.events, base + offset))

    # DelegatingDHT deliberately unrolls the two batch calls through its
    # own get/put.  Here they must go to the inner *batch* method
    # instead: a wrapper below unrolls them itself and a substrate runs
    # its kernel round, exactly as without the boundary.

    def multi_get(
        self, keys: Sequence[str], *, absorb_errors: bool = False
    ) -> list[Any | None]:
        self.batched_keys += len(keys)
        return self.inner.multi_get(keys, absorb_errors=absorb_errors)

    def multi_put(
        self, items: Sequence[tuple[str, Any]], *, absorb_errors: bool = False
    ) -> list[bool]:
        self.batched_keys += len(items)
        return self.inner.multi_put(items, absorb_errors=absorb_errors)
