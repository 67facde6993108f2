"""The traced pass: where the microseconds of an operation go, by layer.

Each repeat runs the first ``trace_ops`` operations of the workload
twice — on a plain stack and on one with a span boundary above every
layer — and requires the two to agree on every counter.  A layer's self
time is its spans' duration minus what their child spans cover, so the
layers' self times add up to the traced time of the operations exactly;
``trace.coverage_ratio`` says how much of the phase's wall that is (the
rest is the driver's loop) and ``trace.overhead_ratio`` what tracing
itself costs.

Layer names are the program's module names.  Which end-to-end metric
each number should move, on which workload, is tabulated in README.md.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
from pathlib import Path
from time import perf_counter_ns as now
from typing import Any, Sequence

from repro.dht import hash_key, registry
from repro.serve import Status, ThreadedFrontend

from bench import stacks
from bench.measure import (
    SERVE_CONFIG, Repeat, laps, percentile, run_repeat, serve_requests,
)
from bench.oracle import WrongAnswer
from bench.spans import Span, Tracer, self_times
from bench.workloads import KINDS, Workload

__all__ = ["OUT_DIR", "PER_LAYER", "trace"]

OUT_DIR = Path(__file__).resolve().parent / "out"
ROUTE_CALLS = 2_000
THREADED_REQUESTS = 5_000
OP_KINDS = tuple(dict.fromkeys(KINDS))  # lookup insert delete range minmax
WRAPPERS = ("dht.serializing", "dht.faulty", "dht.replicated", "resilience")
LAYERS = ("serve", "core", "resilience", "dht.replicated", "dht.faulty",
          "dht.serializing", "dht.kernel")  # top of the stack first

#: (name, unit, better) of every per-layer metric, in report order;
#: BENCHMARK.json's ``per_layer`` is this list.  Every traced run prints
#: all of them — a layer that is not in the workload's stack reads 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # The ledger: each layer's share of the traced operations' time
    # (they add up to 1; dht.kernel's includes the substrate's route).
    *((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    ("core.self_us_per_op", "us", "lower"),
    ("core.dht_calls_per_op", "count", "lower"),
    ("core.bulk_load_s", "s", "lower"),
    ("core.splits", "count", "lower"),
    ("core.merges", "count", "lower"),
    ("core.records_moved_per_split", "count", "lower"),
    ("core.maintenance_lookups_per_event", "count", "lower"),
    ("core.range.records_per_query", "count", "higher"),
    ("core.range.batch_rounds_per_query", "count", "lower"),
    ("core.range.max_lookups_minus_buckets", "count", "lower"),
    ("dht.kernel.us_per_call", "us", "lower"),
    ("dht.kernel.calls_per_op", "count", "lower"),
    *(
        (f"dht.route.{substrate}.{what}", unit, "lower")
        for substrate in registry.names()
        for what, unit in (("us_per_call", "us"), ("hops_per_call", "count"))
    ),
    ("dht.serializing.self_us_per_call", "us", "lower"),
    ("dht.serializing.bytes_per_put", "B", "lower"),
    ("dht.serializing.bytes_per_live_record", "B", "lower"),
    ("dht.faulty.self_us_per_call", "us", "lower"),
    ("dht.faulty.dropped_gets", "count", "lower"),
    ("dht.replicated.self_us_per_call", "us", "lower"),
    ("dht.replicated.inner_calls_per_call", "count", "lower"),
    ("dht.replicated.probe_gets", "count", "lower"),
    ("dht.replicated.failovers", "count", "lower"),
    ("dht.replicated.divergences", "count", "lower"),
    ("resilience.self_us_per_call", "us", "lower"),
    ("resilience.retries_per_op", "count", "lower"),
    ("resilience.exhausted_gets", "count", "lower"),
    ("resilience.breaker_trips", "count", "lower"),
    ("serve.self_us_per_req", "us", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.coalesced_gets_per_req", "count", "higher"),
    ("serve.rejections", "count", "lower"),
    ("serve.queue_depth_peak", "count", "lower"),
    ("serve.sim_p99_s", "s", "lower"),
    ("serve.threaded.req_per_s", "1/s", "higher"),
    ("serve.threaded.submit_p50_us", "us", "lower"),
    *(
        (f"op.{kind}.{what}", unit, better)
        for kind in OP_KINDS
        for what, unit, better in (("p50_us", "us", "lower"), ("count", "count", "higher"))
    ),
    ("op.p99_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
)


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


# ----------------------------------------------------------------------
# Measurements taken once per run, beside the workload's own stack
# ----------------------------------------------------------------------


def route_costs(names: Sequence[str], seed: int) -> dict[str, float]:
    """``route(key)`` alone, for every registry substrate, over the
    bucket names the workload's index stores.  Each overlay is a fresh
    one, so the gateway RNG of the workload's own overlay is untouched.
    """
    for name in names:  # the SHA-1 memo is process-wide: warm it for all
        hash_key(name)
    costs: dict[str, float] = {}
    for substrate in registry.names():
        route = registry.make(substrate, stacks.N_PEERS, seed).route
        hops = 0
        begin = now()
        for name in names:
            hops += route(name)[1]
        elapsed = now() - begin
        costs[f"dht.route.{substrate}.us_per_call"] = elapsed / len(names) / 1e3
        costs[f"dht.route.{substrate}.hops_per_call"] = hops / len(names)
    return costs


def threaded_arm(workload: Workload) -> dict[str, float]:
    """The request prefix through ``ThreadedFrontend`` with one client
    thread per core.  Scheduler-sensitive and unordered, so answers are
    only checked for status; informational, never a claim target."""
    requests = serve_requests(workload.ops[: THREADED_REQUESTS // workload.scale])
    index = stacks.build("serve", workload.seed).index
    index.bulk_load(workload.keys, fast=True)
    n_threads = os.cpu_count() or 1
    submit_ns: list[list[int]] = [[] for _ in range(n_threads)]
    bad: list[int] = []

    def client(first: int, frontend: ThreadedFrontend) -> None:
        for i in range(first, len(requests), n_threads):
            t0 = now()
            response = frontend.submit(requests[i])
            submit_ns[first].append(now() - t0)
            if response.status is not Status.OK:
                bad.append(i)

    with ThreadedFrontend(index, SERVE_CONFIG) as frontend:
        threads = [
            threading.Thread(target=client, args=(t, frontend)) for t in range(n_threads)
        ]
        begin = now()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = now() - begin
    if bad:
        raise WrongAnswer(f"threaded arm: request {bad[0]} was not answered OK")
    ordered = sorted(ns for per_thread in submit_ns for ns in per_thread)
    return {
        "serve.threaded.req_per_s": len(requests) / (elapsed / 1e9),
        "serve.threaded.submit_p50_us": percentile(ordered, 0.50) / 1e3,
    }


# ----------------------------------------------------------------------
# One traced repeat -> per-layer numbers
# ----------------------------------------------------------------------


def _own_delta(repeat: Repeat, name: str) -> int:
    return stacks.own_counters(repeat.stack)[name] - repeat.own_before[name]


def _stored_bytes_per_record(repeat: Repeat) -> float:
    """Encoded size of the primary copies per live record."""
    below = repeat.stack.layers["dht.serializing"].inner  # type: ignore[attr-defined]
    names = set(below.keys())  # replica holders repeat the key
    return _per(sum(len(below.peek(name)) for name in names), len(repeat.stack.index))


def _spans_of(workload: Workload, traced: Repeat, tracer: Tracer) -> list[Span]:
    phase = traced.phase
    if workload.spec.stack == "serve":
        return tracer.spans()
    ops = workload.ops
    return tracer.spans(
        [
            Span(KINDS[ops[i][0]], "core", i, None, phase.starts[i], phase.ends[i])
            for i in range(len(phase.starts))
        ]
    )


def layer_metrics(
    workload: Workload,
    plain: Repeat,
    traced: Repeat,
    spans: Sequence[Span],
    once: dict[str, float],
) -> dict[str, float]:
    """Every per-layer number one plain + traced repeat pair yields;
    ``once`` holds the route table (and the threaded arm)."""
    phase = traced.phase
    n_ops = len(phase.starts)
    counters = phase.counters
    index = traced.stack.index
    own = self_times(spans)
    count_by: dict[tuple[str, str], int] = {}
    for span in spans:
        key = (span.layer, span.name)
        count_by[key] = count_by.get(key, 0) + 1
    calls_from_core = sum(
        1 for span in spans if span.parent is not None and spans[span.parent].layer == "core"
    )
    out: dict[str, float] = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    out.update(once)

    # core: the index.  On the serve stack only writes and ranges enter
    # it (reads run lookup_plan inside the serving layer).
    core_ns, _ = own.get("core", (0, 0))
    out["core.self_us_per_op"] = core_ns / n_ops / 1e3
    out["core.dht_calls_per_op"] = calls_from_core / n_ops
    out["core.bulk_load_s"] = plain.bulk_load_s
    ledger = index.ledger
    out["core.splits"] = len(ledger.splits)
    out["core.merges"] = len(ledger.merges)
    out["core.records_moved_per_split"] = _per(
        sum(event.records_moved for event in ledger.splits), len(ledger.splits)
    )
    out["core.maintenance_lookups_per_event"] = _per(
        ledger.maintenance_lookups, len(ledger.splits) + len(ledger.merges)
    )
    if phase.ranges:
        records, rounds, buckets, excess = zip(*phase.ranges)
        out["core.range.records_per_query"] = statistics.fmean(records)
        out["core.range.batch_rounds_per_query"] = statistics.fmean(rounds)
        out["core.range.max_lookups_minus_buckets"] = max(
            (e for b, e in zip(buckets, excess) if b >= 2), default=0
        )

    # dht.kernel: everything below the lowest boundary, route included;
    # the stand-alone route estimate is taken out per routed key.
    kernel_ns, kernel_calls = own["dht.kernel"]
    routed = _own_delta(traced, "dht.kernel.batched_keys") + sum(
        count_by.get(("dht.kernel", name), 0) for name in ("get", "put", "remove")
    )
    substrate = stacks.substrate_of(workload.spec.stack)
    route_ns = once[f"dht.route.{substrate}.us_per_call"] * 1e3 * routed
    out["dht.kernel.us_per_call"] = _per(kernel_ns - route_ns, kernel_calls) / 1e3
    out["dht.kernel.calls_per_op"] = kernel_calls / n_ops

    for layer in WRAPPERS:
        ns, calls = own.get(layer, (0, 0))
        out[f"{layer}.self_us_per_call"] = _per(ns, calls) / 1e3
    if workload.spec.stack == "deploy":
        encodes = sum(
            count_by.get(("dht.serializing", name), 0)
            for name in ("put", "put_at", "local_write", "local_write_at")
        )
        out["dht.serializing.bytes_per_put"] = _per(
            _own_delta(traced, "dht.serializing.bytes_written"), encodes
        )
        out["dht.serializing.bytes_per_live_record"] = _stored_bytes_per_record(traced)
        out["dht.faulty.dropped_gets"] = _own_delta(traced, "dht.faulty.dropped_gets")
        out["dht.replicated.inner_calls_per_call"] = _per(
            own["dht.faulty"][1], own["dht.replicated"][1]
        )
        out["resilience.exhausted_gets"] = _own_delta(traced, "resilience.exhausted_gets")
    out["dht.replicated.probe_gets"] = counters.replica_probe_gets
    out["dht.replicated.failovers"] = counters.replica_failovers
    out["dht.replicated.divergences"] = counters.replica_divergences
    out["resilience.retries_per_op"] = counters.retries / n_ops
    out["resilience.breaker_trips"] = counters.breaker_trips

    if workload.spec.stack == "serve":
        top_ns = sum(s.end_ns - s.start_ns for s in spans if s.parent is None)
        out["serve.self_us_per_req"] = (phase.wall_ns - top_ns) / n_ops / 1e3
        out["serve.batches"] = counters.serve_batches
        out["serve.batch_size_mean"] = _per(counters.serve_requests, counters.serve_batches)
        out["serve.coalesced_gets_per_req"] = counters.serve_coalesced_gets / n_ops
        out["serve.rejections"] = counters.serve_rejections
        metrics = index.dht.metrics
        out["serve.queue_depth_peak"] = metrics.queue_depth_peak
        out["serve.sim_p99_s"] = metrics.latency_percentiles()["p99"]
        traced_ns = phase.wall_ns
        own["serve"] = (phase.wall_ns - top_ns, n_ops)
    else:
        traced_ns = sum(ns for ns, _ in own.values())
    for layer, (ns, _) in own.items():
        out[f"{layer}.self_share"] = ns / traced_ns

    # Latency comes from the plain pass: tracing inflates it.
    plain_ns = plain.phase.latencies_ns()
    latencies: dict[str, list[int]] = {kind: [] for kind in OP_KINDS}
    for (kind, _, _), ns in zip(workload.ops, plain_ns):
        latencies[KINDS[kind]].append(ns)
    for kind, sample in latencies.items():
        out[f"op.{kind}.count"] = len(sample)
        if sample:
            out[f"op.{kind}.p50_us"] = percentile(sorted(sample), 0.50) / 1e3
    out["op.p99_us"] = percentile(sorted(plain_ns), 0.99) / 1e3

    out["trace.overhead_ratio"] = phase.wall_ns / plain.phase.wall_ns
    out["trace.coverage_ratio"] = traced_ns / phase.wall_ns
    return out


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def write_spans(path: Path, spans: Sequence[Span], requests: Sequence[Span]) -> None:
    """One row per span, columns as in :class:`~bench.spans.Span`.  The
    serve workload's request spans overlap (eight sessions), so they
    are listed apart from the dispatcher's span tree."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(
            {"columns": Span._fields, "spans": spans, "requests": requests}, handle
        )


def trace(workload: Workload, seconds: float) -> dict[str, Any]:
    """Repeat plain + traced prefix pairs until ``seconds`` are used
    up; per-layer medians (after a warm-up pair) and the last span set.
    """
    ops = workload.ops[: workload.trace_ops]
    serve = workload.spec.stack == "serve"
    once: dict[str, float] = {}
    samples: dict[str, list[float]] = {name: [] for name, _, _ in PER_LAYER}
    attempted = failed = 0
    spans: list[Span] = []
    requests: list[Span] = []
    for repeat in laps(seconds):
        spans, requests = [], []  # drop the last pair's before building anew
        plain = run_repeat(workload, ops)
        tracer = Tracer()
        traced = run_repeat(workload, ops, tracer)
        attempted += 2 * len(ops)
        failed += plain.phase.failed + traced.phase.failed
        if plain.phase.counters != traced.phase.counters:
            raise WrongAnswer(
                "tracing changed the counters: "
                f"{plain.phase.counters} != {traced.phase.counters}"
            )
        if not once:
            names = sorted(set(plain.stack.layers["dht.kernel"].keys()))
            n_calls = max(1, ROUTE_CALLS // workload.scale)
            once = route_costs((names * (n_calls // len(names) + 1))[:n_calls], workload.seed)
            if serve:
                once.update(threaded_arm(workload))
        spans = _spans_of(workload, traced, tracer)
        values = layer_metrics(workload, plain, traced, spans, once)
        if repeat > 0:  # the first pair is the warm-up
            for name, value in values.items():
                samples[name].append(value)
        if serve:
            phase = traced.phase
            requests = [
                Span("request", "serve", i, None, phase.starts[i], phase.ends[i])
                for i in range(len(ops))
            ]
        del plain, traced  # free both stacks before the next pair is built
    write_spans(OUT_DIR / f"trace-{workload.spec.name}.json", spans, requests)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {
        "metrics": {
            name: {"value": statistics.median(values), "unit": units[name], "samples": values}
            for name, values in samples.items()
        },
        "attempted": attempted,
        "failed": failed,
        "repeats": repeat + 1,
    }
