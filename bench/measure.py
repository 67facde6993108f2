"""Drive a workload through a stack, time it, and check every answer.

One *repeat* is: build the stack and bulk-load it (timed: ``setup_s``),
collect garbage, run the whole op list closed-loop with a
``perf_counter_ns`` pair around every public call (GC stays on), then —
outside the timed phase — normalise the raw results, replay them
against the oracle and check the paper's bounds.  Every repeat rebuilds
from the same seeds, so it performs the same operations on the same
state: its counts are identical and only its times vary, which lets
:func:`measure` take medians per operation across repeats.  The first
repeat is a warm-up (imports, allocator and ``hash_key`` memo are cold)
and its times are dropped.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from time import perf_counter_ns as now
from typing import Any, Awaitable, Callable, Iterator, Sequence

from repro.core import MatchStatus
from repro.errors import OverloadError, ReproError
from repro.serve import AsyncFrontend, Request, RequestKind, ServeConfig, Status

from bench import stacks
from bench.oracle import Oracle, WrongAnswer, check_splits
from bench.spans import Tracer
from bench.workloads import (
    DELETE, INSERT, LOOKUP, MIN, RANGE, SERVE_SESSIONS, Op, Workload,
)

__all__ = [
    "END_TO_END", "MIN_REPEATS", "SERVE_CONFIG", "Phase", "Repeat", "generator_overhead_us",
    "laps", "measure", "percentile", "run_repeat", "serve_requests",
    "typical_latencies_ns",
]

#: (name, unit, better, bound): BENCHMARK.json's ``end_to_end``.  The
#: bound is the share of the parent's median a metric may worsen by.
#: Counts repeat exactly under one seed (``--compare`` holds them to
#: that); their bound only has to cover the seed-to-seed spread the
#: driver's calibration sees.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("p50_us", "us", "lower", 0.25),
    ("p90_us", "us", "lower", 0.25),
    ("dht_lookups_per_op", "count", "lower", 0.15),
    ("hops_per_op", "count", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: One warm-up repeat plus at least two measured ones, whatever the clock says.
MIN_REPEATS = 3
SERVE_CONFIG = ServeConfig(max_in_flight=8, max_queue=32)
PHASE_SLICES = 16
RANGE_BOUND_SLACK = 3  # the paper's B + 3

_FAILED = object()  # answer slot of an operation that failed (typed)


@dataclass
class Phase:
    """One timed phase: per-op windows, checked answers, counter deltas."""

    wall_ns: int
    starts: list[int]
    ends: list[int]
    answers: list[Any]
    counters: Any  # MetricsSnapshot delta over the phase
    failed: int = 0
    #: Alg. 2 probes of each exact_match (bare stacks), for the
    #: cross-substrate equality check.
    lookups: list[int] = field(default_factory=list)
    #: (records, batch_rounds, buckets_visited, dht_lookups - buckets_visited)
    #: per range query.
    ranges: list[tuple[int, int, int, int]] = field(default_factory=list)

    def latencies_ns(self) -> list[int]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def slice_ns(self) -> list[int]:
        """Wall of each ``1/PHASE_SLICES`` of the phase, cut by
        operation index (the serve sessions' slices overlap by at most
        the eight requests in flight)."""
        size = len(self.starts) // PHASE_SLICES
        return [
            max(self.ends[a : a + size]) - min(self.starts[a : a + size])
            for a in range(0, size * PHASE_SLICES, size)
        ]


def percentile(ordered: Sequence[int], q: float) -> int:
    """Nearest-rank percentile of an ascending sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# Closed loop, one caller: direct index calls
# ----------------------------------------------------------------------


def _drive_direct(index: Any, ops: Sequence[Op], checked: bool) -> tuple[int, list, list, list]:
    """The timed loop.  ``index`` needs only the six public methods, so
    the generator-overhead run passes a stub."""
    lookup = index.exact_match_checked if checked else index.exact_match
    insert, delete = index.insert, index.delete
    range_query = index.range_query
    min_query, max_query = index.min_query, index.max_query
    n = len(ops)
    starts, ends, raw = [0] * n, [0] * n, [None] * n
    i = 0
    begin = now()
    for kind, x, y in ops:
        try:
            if kind == LOOKUP:
                t0 = now()
                result = lookup(x)
            elif kind == INSERT:
                t0 = now()
                result = insert(x, y)
            elif kind == DELETE:
                t0 = now()
                result = delete(x)
            elif kind == RANGE:
                t0 = now()
                result = range_query(x, y)
            elif kind == MIN:
                t0 = now()
                result = min_query()
            else:
                t0 = now()
                result = max_query()
        except ReproError as exc:
            result = exc
        ends[i] = now()
        starts[i] = t0
        raw[i] = result
        i += 1
    return now() - begin, starts, ends, raw


def _normalise_direct(ops: Sequence[Op], raw: list, phase: Phase) -> None:
    answers = phase.answers
    for i, (kind, x, y) in enumerate(ops):
        result = raw[i]
        if isinstance(result, ReproError):
            answers[i] = _FAILED
        elif kind == LOOKUP:
            if isinstance(result, tuple):
                answers[i] = result[0]
                phase.lookups.append(result[1])
            elif result.status is MatchStatus.UNREACHABLE:
                answers[i] = _FAILED
            else:
                answers[i] = result.record
        elif kind == INSERT:
            answers[i] = None
        elif kind == DELETE:
            answers[i] = result.deleted
        elif kind == RANGE:
            if not result.complete:
                answers[i] = _FAILED
                continue
            excess = result.dht_lookups - result.buckets_visited
            # §6.3 bounds a range over B >= 2 buckets; inside one bucket
            # the cost is the LCA search's, which B does not bound.
            if result.buckets_visited >= 2 and excess > RANGE_BOUND_SLACK:
                raise WrongAnswer(
                    f"op {i} (range [{x!r}, {y!r})): {result.dht_lookups} "
                    f"DHT-lookups for {result.buckets_visited} buckets "
                    f"breaks B + {RANGE_BOUND_SLACK}"
                )
            answers[i] = result.records
            phase.ranges.append(
                (len(result.records), result.batch_rounds, result.buckets_visited, excess)
            )
        else:
            answers[i] = result.record if result.complete else _FAILED


class _StubIndex:
    """Every public call returns at once: what is left is the loop."""

    def _nothing(self, *args: Any) -> None:
        return None

    exact_match = exact_match_checked = insert = delete = _nothing
    range_query = min_query = max_query = _nothing


# ----------------------------------------------------------------------
# Closed loop, eight sessions on one event-loop thread: the serve layer
# ----------------------------------------------------------------------

_REQUEST_KINDS = {
    LOOKUP: RequestKind.LOOKUP,
    INSERT: RequestKind.INSERT,
    DELETE: RequestKind.REMOVE,
    RANGE: RequestKind.RANGE,
}


def serve_requests(ops: Sequence[Op]) -> list[Request]:
    """The op list as the serving layer's request objects."""
    return [
        Request(_REQUEST_KINDS[kind], x, hi=y)
        if kind == RANGE
        else Request(_REQUEST_KINDS[kind], x, value=y)
        for kind, x, y in ops
    ]


async def _sessions(
    submit: Callable[[Request], Awaitable[Any]], requests: Sequence[Request]
) -> tuple[int, list, list, list, list]:
    """Session ``s`` owns requests ``s, s + 8, ...`` and sends the next
    one when the previous one is answered."""
    n = len(requests)
    starts, ends, raw = [0] * n, [0] * n, [None] * n
    admitted: list[int] = []

    async def session(first: int) -> None:
        for i in range(first, n, SERVE_SESSIONS):
            t0 = now()
            # submit() admits before its first suspension, so this list
            # is in the front-end's admission order.
            admitted.append(i)
            try:
                result = await submit(requests[i])
            except OverloadError as exc:
                result = exc
            ends[i] = now()
            starts[i] = t0
            raw[i] = result

    begin = now()
    tasks = [asyncio.ensure_future(session(s)) for s in range(SERVE_SESSIONS)]
    await asyncio.gather(*tasks)
    return now() - begin, starts, ends, raw, admitted


async def _drive_serve(index: Any, requests: Sequence[Request]) -> tuple:
    async with AsyncFrontend(index, SERVE_CONFIG) as frontend:
        wall, starts, ends, raw, admitted = await _sessions(frontend.submit, requests)
    return wall, starts, ends, raw, [admitted[j] for j in frontend.executed_order]


async def _stub_submit(request: Request) -> None:
    return None


def _normalise_serve(raw: list, phase: Phase) -> None:
    for i, response in enumerate(raw):
        if isinstance(response, OverloadError) or response.status is not Status.OK:
            phase.answers[i] = _FAILED
        else:
            phase.answers[i] = response.answer


# ----------------------------------------------------------------------
# One phase, one repeat, one run
# ----------------------------------------------------------------------


def run_phase(workload: Workload, index: Any, ops: Sequence[Op]) -> Phase:
    """Run ``ops`` on a freshly loaded ``index`` and check the answers."""
    serve = workload.spec.stack == "serve"
    requests = serve_requests(ops) if serve else None
    gc.collect()
    before = index.dht.metrics.snapshot()
    if serve:
        wall, starts, ends, raw, order = asyncio.run(_drive_serve(index, requests))
    else:
        checked = workload.spec.stack == "deploy"
        wall, starts, ends, raw = _drive_direct(index, ops, checked)
        order = range(len(ops))
    phase = Phase(
        wall_ns=wall, starts=starts, ends=ends, answers=[None] * len(ops),
        counters=index.dht.metrics.since(before),
    )
    if serve:
        _normalise_serve(raw, phase)
    else:
        _normalise_direct(ops, raw, phase)
    phase.failed = sum(answer is _FAILED for answer in phase.answers)
    oracle = Oracle(workload.keys, ordered=workload.spec.family in ("range", "serve"))
    oracle.replay(ops, phase.answers, (i for i in order if phase.answers[i] is not _FAILED))
    check_splits(index.ledger.splits, index.config.theta_split)
    return phase


def generator_overhead_us(workload: Workload) -> float:
    """Loop wall per op with the op call stubbed out."""
    if workload.spec.stack == "serve":
        wall = asyncio.run(_sessions(_stub_submit, serve_requests(workload.ops)))[0]
    else:
        wall = _drive_direct(_StubIndex(), workload.ops, checked=False)[0]
    return wall / len(workload.ops) / 1e3


@dataclass
class Repeat:
    """One rebuild + timed phase (``own_before``: the wrappers' own
    counters between the two)."""

    setup_s: float
    bulk_load_s: float
    stack: stacks.Stack
    own_before: dict[str, int]
    phase: Phase


def run_repeat(
    workload: Workload, ops: Sequence[Op], tracer: Tracer | None = None
) -> Repeat:
    # The previous repeat's stack may only be reachable through cycles
    # (span closures, a finished event loop): free it now, so that this
    # set-up is not billed for it.
    gc.collect()
    t0 = time.perf_counter()
    stack = stacks.build(workload.spec.stack, workload.seed, tracer)
    t1 = time.perf_counter()
    stack.index.bulk_load(workload.keys, fast=True)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.reset()
    own_before = stacks.own_counters(stack)
    phase = run_phase(workload, stack.index, ops)
    return Repeat(t2 - t0, t2 - t1, stack, own_before, phase)


def laps(seconds: float) -> Iterator[int]:
    """Yield repeat numbers 0, 1, ... for ``seconds``: stop when the
    next repeat would overrun, but never before ``MIN_REPEATS``."""
    begin = time.perf_counter()
    done = 0
    while True:
        lap = time.perf_counter()
        yield done
        done += 1
        end = time.perf_counter()
        if done >= MIN_REPEATS and end + (end - lap) - begin > seconds:
            return


def reference_lookups(workload: Workload) -> list[int]:
    """Per-op Alg. 2 probe counts of the same ops on bare ``local`` —
    what any other substrate must reproduce exactly ("any DHT")."""
    index = stacks.build("local", workload.seed).index
    index.bulk_load(workload.keys, fast=True)
    return [index.exact_match(x)[1] for _, x, _ in workload.ops]


def typical_latencies_ns(repeats: Sequence[Sequence[int]]) -> list[int]:
    """Per operation, the median of its latencies over the repeats (the
    same operation on the same rebuilt state every time), ascending.
    What a neighbour's burst adds to one repeat drops out; what the
    program itself does at that operation — a split, a GC pause that
    allocation counts trigger at the same point — stays."""
    return sorted(statistics.median(column) for column in zip(*repeats))


def measure(workload: Workload, seconds: float) -> dict[str, Any]:
    """Repeat until ``seconds`` are used up; return values and samples.

    The result maps each end-to-end metric to ``{"value", "unit",
    "samples"}`` plus ``attempted``/``failed`` totals.  ``samples`` has
    one entry per repeat after the warm-up.  ``setup_s`` is their
    median.  The latency percentiles are taken over
    :func:`typical_latencies_ns`, and ``ops_per_s`` likewise divides the
    operations by the sum, over the phase's slices, of each slice's
    median wall across repeats — medians per operation rather than per
    repeat, because this box's noise comes in bursts shorter than a
    phase.
    """
    n_ops = len(workload.ops)
    expected = reference_lookups(workload) if workload.spec.probes_as_on_local else None
    samples: dict[str, list[float]] = {
        name: [] for name in ("setup_s", "ops_per_s", "p50_us", "p90_us")
    }
    latencies: list[list[int]] = []
    slices: list[list[int]] = []
    counts: dict[str, float] = {}
    attempted = failed = 0
    for done in laps(seconds):
        repeat = run_repeat(workload, workload.ops)
        phase = repeat.phase
        attempted += n_ops
        failed += phase.failed
        if expected is not None and phase.lookups != expected:
            i = next(i for i, (a, b) in enumerate(zip(phase.lookups, expected)) if a != b)
            raise WrongAnswer(
                f"op {i} (lookup {workload.ops[i][1]!r}): {phase.lookups[i]} "
                f"DHT-lookups over {workload.spec.stack}, {expected[i]} over local"
            )
        ledger = repeat.stack.index.ledger
        floor = workload.spec.min_splits_and_merges // workload.scale
        if min(len(ledger.splits), len(ledger.merges)) < floor:
            raise WrongAnswer(
                f"only {len(ledger.splits)} splits and {len(ledger.merges)} "
                f"merges in the timed phase; the workload needs {floor} of each"
            )
        this = {
            "dht_lookups_per_op": phase.counters.dht_lookups / n_ops,
            "hops_per_op": phase.counters.hops / n_ops,
        }
        if counts and this != counts:
            raise WrongAnswer(f"counts changed between repeats: {counts} -> {this}")
        counts = this
        if done > 0:  # the first repeat is the warm-up
            latencies.append(phase.latencies_ns())
            slices.append(phase.slice_ns())
            ordered = sorted(latencies[-1])
            samples["setup_s"].append(repeat.setup_s)
            samples["ops_per_s"].append(n_ops / (phase.wall_ns / 1e9))
            samples["p50_us"].append(percentile(ordered, 0.50) / 1e3)
            samples["p90_us"].append(percentile(ordered, 0.90) / 1e3)
        del repeat, phase  # free the stack before the next one is built
    typical = typical_latencies_ns(latencies)
    sliced_ops = n_ops // PHASE_SLICES * PHASE_SLICES
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "ops_per_s": sliced_ops
        / (sum(statistics.median(column) for column in zip(*slices)) / 1e9),
        "p50_us": percentile(typical, 0.50) / 1e3,
        "p90_us": percentile(typical, 0.90) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    } | counts
    return {
        "metrics": {
            name: {"value": values[name], "unit": unit, "samples": samples.get(name, [values[name]])}
            for name, unit, _, _ in END_TO_END
        },
        "attempted": attempted,
        "failed": failed,
        "repeats": done + 1,
    }
