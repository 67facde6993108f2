"""Count-based benchmark regression gate.

Wall-clock benchmarks (``bench/``) measure speed but drift with the
host; the *counts* the paper cares about — routed DHT-gets per
operation, parallel lookup steps, records moved by maintenance — are
exactly reproducible from a seed.  This module measures those counts on
a fixed workload and compares them against checked-in baselines
(``BENCH_lookup.json`` / ``BENCH_range.json`` / ``BENCH_build.json`` /
``BENCH_serve.json`` / ``BENCH_avail.json`` at the repository root), so
a change that silently makes lookups, range queries, bulk builds,
request serving, or replicated availability more expensive fails a test
instead of a human's memory.  Wall-clock is not measured here: the
benchmark in ``bench/`` owns it.

``--hotspots`` runs the paper-scale build/lookup/range workload
(:data:`SCALE_PROFILES`, :func:`run_scale_phases`) under
:mod:`cProfile` and prints each phase's hot spots, ranked by call count
(a pure function of the seed, so the ranking is byte-stable across runs
and hosts) with the profiler's times alongside; it gates and writes
nothing.

Usage::

    python -m repro.devtools benchgate --check           # gate (default)
    python -m repro.devtools benchgate --write           # refresh baselines
    python -m repro.devtools benchgate --hotspots --scale-profile smoke

The pytest gate (``tests/test_bench_regression.py``, marked ``bench``)
runs the same measurement and fails on any metric above its baseline:
every gated metric is a seed-deterministic count or a simulated time,
so the comparison is exact.  Improvements are accepted silently —
refresh the baselines with ``--write`` to bank them.  All gated metrics
are lower-is-better.
"""

from __future__ import annotations

import argparse
import cProfile
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht import registry
from repro.dht.local import LocalDHT
from repro.errors import ReproError
from repro.experiments.common import (
    availability_cell,
    phase_hops,
    zipf_probe_cost,
)
from repro.serve import (
    ServeConfig,
    ServeEngine,
    WorkloadConfig,
    generate_workload,
    serial_answer,
)
from repro.sim.rng import derive_seed
from repro.workloads.queries import zipf_rank_choice

__all__ = [
    "LOOKUP_BASELINE",
    "RANGE_BASELINE",
    "BUILD_BASELINE",
    "SERVE_BASELINE",
    "AVAIL_BASELINE",
    "SCALE_PROFILES",
    "PhaseResult",
    "run_scale_phases",
    "measure_lookup",
    "measure_range",
    "measure_build",
    "measure_serve",
    "measure_avail",
    "compare",
    "main",
]

_REPO_ROOT = Path(__file__).resolve().parents[3]
LOOKUP_BASELINE = _REPO_ROOT / "BENCH_lookup.json"
RANGE_BASELINE = _REPO_ROOT / "BENCH_range.json"
BUILD_BASELINE = _REPO_ROOT / "BENCH_build.json"
SERVE_BASELINE = _REPO_ROOT / "BENCH_serve.json"
AVAIL_BASELINE = _REPO_ROOT / "BENCH_avail.json"

#: Fixed workload shape — the baselines are only comparable against the
#: exact same parameters, so they are recorded alongside the metrics.
_PARAMS = {
    "seed": 1,
    "n_keys": 4096,
    "n_inserts": 512,
    "n_probes": 400,
    "n_ranges": 12,
    "theta_split": 100,
    "max_depth": 20,
    "probe_skew": 1.1,
    "cache_small_capacity": 16,
    "cache_ample_capacity": 4096,
    # The E25 cell behind the ``hops_per_op_*`` gates (its ``ci`` row
    # at N = 32): ``common.phase_hops`` reads these names.
    "hops": {
        "n_peers": 32,
        "size": 512,
        "n_lookups": 40,
        "n_ranges": 6,
        "span": 0.05,
        "theta_split": 20,
    },
}


def _build(seed: int, *, cache_capacity: int | None) -> tuple[LHTIndex, list[float]]:
    dht = LocalDHT(n_peers=16, seed=derive_seed(seed, "bench:sub"))
    config = IndexConfig(
        theta_split=_PARAMS["theta_split"],
        max_depth=_PARAMS["max_depth"],
        cache_capacity=cache_capacity,
    )
    index = LHTIndex(dht, config)
    rng = np.random.default_rng(derive_seed(seed, "bench:keys"))
    keys = [float(k) for k in rng.random(_PARAMS["n_keys"])]
    index.bulk_load(keys)
    if index.cache is not None:
        index.cache.clear()  # measure steady-state reads, not build residue
    return index, keys


def _probe_cost(index: LHTIndex, keys: list[float], seed: int) -> float:
    """Gets per probe of the Zipf-over-rank probe stream on stored keys
    (the E23 cell; every arm draws the same stream)."""
    rng = np.random.default_rng(derive_seed(seed, "bench:probes"))
    return zipf_probe_cost(
        index, keys, _PARAMS["probe_skew"], _PARAMS["n_probes"], rng
    )[0]


def measure_lookup(seed: int = 1) -> dict:
    """Exact-match and insertion counts on the fixed workload."""
    uncached, keys = _build(seed, cache_capacity=None)
    metrics: dict[str, float] = {
        "uncached_gets_per_probe": _probe_cost(uncached, keys, seed)
    }
    for arm, capacity in (
        ("cached_small", _PARAMS["cache_small_capacity"]),
        ("cached_ample", _PARAMS["cache_ample_capacity"]),
    ):
        index, _ = _build(seed, cache_capacity=capacity)
        metrics[f"{arm}_gets_per_probe"] = _probe_cost(index, keys, seed)

    # Maintenance counts: individual inserts on top of the built index
    # (bulk_load sidesteps per-insert lookups, so it would hide both).
    index, _ = _build(seed, cache_capacity=None)
    rng = np.random.default_rng(derive_seed(seed, "bench:inserts"))
    before = index.dht.metrics.snapshot()
    for key in rng.random(_PARAMS["n_inserts"]):
        index.insert(float(key))
    spent = index.dht.metrics.snapshot() - before
    metrics["insert_gets_per_op"] = spent.gets / _PARAMS["n_inserts"]
    metrics["records_moved_per_insert"] = (
        spent.records_moved / _PARAMS["n_inserts"]
    )
    metrics.update(_substrate_hops(seed, "lookup"))
    return {"params": dict(_PARAMS), "metrics": metrics}


def _substrate_hops(seed: int, phase: str) -> dict[str, float]:
    """``hops_per_op_<substrate>``: routed hops per DHT-lookup of one
    phase of the E25 cell (:func:`phase_hops`) on every registered
    substrate, each phase's DHT-lookup count equal on all of them.

    The index-level gates run over :class:`LocalDHT`'s synthetic hop
    model; these are the *physical* routing costs the same seeded
    workload pays on each real overlay, so a topology change that
    silently lengthens routes fails the gate like any other count.
    """
    hops = _PARAMS["hops"]
    reference: dict = {}
    return {
        f"hops_per_op_{name}": phase_hops(
            name, hops["n_peers"], hops, seed, reference
        )[phase]
        for name in registry.names()
    }


def measure_range(seed: int = 1) -> dict:
    """Range-query counts (bandwidth, latency, rounds, B+3 slack)."""
    index, _ = _build(seed, cache_capacity=None)
    rng = np.random.default_rng(derive_seed(seed, "bench:ranges"))
    totals = {"gets": 0.0, "steps": 0.0, "rounds": 0.0, "slack": 0.0}
    n = _PARAMS["n_ranges"]
    for _ in range(n):
        lo = float(rng.uniform(0.0, 0.9))
        hi = float(min(1.0, lo + rng.uniform(0.01, 0.4)))
        result = index.range_query(lo, hi)
        if not result.complete:
            raise ReproError("fault-free range query reported gaps")
        totals["gets"] += result.dht_lookups
        totals["steps"] += result.parallel_steps
        totals["rounds"] += result.batch_rounds
        # §6.3: at most B + 3 lookups for B result buckets.
        totals["slack"] += result.dht_lookups - result.buckets_visited
    metrics = {
        "gets_per_query": totals["gets"] / n,
        "parallel_steps_per_query": totals["steps"] / n,
        "batch_rounds_per_query": totals["rounds"] / n,
        "lookup_slack_per_query": totals["slack"] / n,
    }
    metrics.update(_substrate_hops(seed, "range"))
    return {"params": dict(_PARAMS), "metrics": metrics}


def measure_build(seed: int = 1) -> dict:
    """Bulk-build counts: incremental replay vs the sorted fast path.

    Gated metrics are the routed put and records-moved counts per key
    for both paths (all deterministic and lower-is-better); the fast
    path's put count must equal the final leaf count, so any stray
    extra put fails the gate.
    """
    n = _PARAMS["n_keys"]
    rng = np.random.default_rng(derive_seed(seed, "bench:keys"))
    keys = [float(k) for k in rng.random(n)]
    config = IndexConfig(
        theta_split=_PARAMS["theta_split"], max_depth=_PARAMS["max_depth"]
    )

    counts: dict[str, float] = {}
    for arm, fast in (("incremental", False), ("fast", True)):
        dht = LocalDHT(n_peers=16, seed=derive_seed(seed, "bench:sub"))
        index = LHTIndex(dht, config)
        before = dht.metrics.snapshot()
        index.bulk_load(keys, fast=fast)
        spent = dht.metrics.snapshot() - before
        counts[f"{arm}_puts_per_key"] = spent.puts / n
        counts[f"{arm}_moved_per_key"] = spent.records_moved / n
        if fast and spent.puts != index.leaf_count:
            raise ReproError(
                f"fast bulk-build issued {spent.puts} puts for "
                f"{index.leaf_count} leaves"
            )
    counts.update(_substrate_hops(seed, "build"))
    return {"params": dict(_PARAMS), "metrics": counts}


#: Serving-gate workload shape — its own dict so the three original
#: baselines stay byte-comparable (their recorded ``params`` must not
#: change when serving knobs do).
_SERVE_PARAMS = {
    "seed": 1,
    "n_keys": 2048,
    "theta_split": 100,
    "max_depth": 20,
    "n_requests": 480,
    "rate": 140.0,
    "skew": 1.1,
    "mix": {"lookup": 0.90, "insert": 0.05, "remove": 0.03, "range": 0.02},
    "n_sessions": 8,
    "max_in_flight": 8,
    "max_queue": 32,
    "step_seconds": 0.01,
}


def _serve_index(seed: int) -> tuple[LHTIndex, list[float]]:
    dht = LocalDHT(n_peers=16, seed=derive_seed(seed, "bench:serve:sub"))
    config = IndexConfig(
        theta_split=_SERVE_PARAMS["theta_split"],
        max_depth=_SERVE_PARAMS["max_depth"],
    )
    index = LHTIndex(dht, config)
    rng = np.random.default_rng(derive_seed(seed, "bench:serve:keys"))
    keys = [float(k) for k in rng.random(_SERVE_PARAMS["n_keys"])]
    index.bulk_load(keys)
    return index, keys


def measure_serve(seed: int = 1) -> dict:
    """Serving-layer counts: latency percentiles, cost, and coalescing.

    One seeded open-loop workload (Poisson arrivals, Zipf key skew) is
    served by the deterministic engine; the uncoalesced count is the
    serial reference — the executed order replayed request by request
    through the plain index API on a twin index, which must also
    reproduce every served answer.  Coalescing changes *how many gets* a
    round issues, never which probes a lookup makes, so the two
    routed-get counts differ by exactly the batched dedup count.

    Gated (all lower-is-better): latency p50/p90/p99 and simulated
    seconds per completed request (the inverse of throughput — gating it
    gates throughput), routed gets served and replayed, and routed ops
    per request — the serving run's own, the bulk load's puts excluded.
    ``info`` carries the higher-is-better or derived views (throughput,
    gets saved, batches, rejections).  Two hard invariants, not banked
    counts: the replayed gets minus the served gets equal the dedup
    count the engine's batches recorded, and at this concurrency
    (``max_in_flight`` ≥ 8) that count is positive.
    """
    workload_config = WorkloadConfig(
        n_requests=_SERVE_PARAMS["n_requests"],
        rate=_SERVE_PARAMS["rate"],
        skew=_SERVE_PARAMS["skew"],
        mix=dict(_SERVE_PARAMS["mix"]),
        n_sessions=_SERVE_PARAMS["n_sessions"],
    )
    index, keys = _serve_index(seed)
    loaded = index.dht.metrics.snapshot()
    workload = generate_workload(
        keys, workload_config, seed=derive_seed(seed, "bench:serve:wl")
    )
    engine = ServeEngine(
        index,
        ServeConfig(
            max_in_flight=_SERVE_PARAMS["max_in_flight"],
            max_queue=_SERVE_PARAMS["max_queue"],
            step_seconds=_SERVE_PARAMS["step_seconds"],
        ),
    )
    crun = engine.run(workload)
    cspent = index.dht.metrics.since(loaded)

    twin, _ = _serve_index(seed)
    twin_loaded = twin.dht.metrics.snapshot()
    for i in crun.executed_order:
        expected = serial_answer(twin, workload[i].request)
        if crun.responses[i].answer != expected:
            raise ReproError(
                f"served answer {i} differs from its serial replay: "
                f"{crun.responses[i].answer!r} != {expected!r}"
            )
    replayed_gets = twin.dht.metrics.since(twin_loaded).gets
    saved = cspent.serve_coalesced_gets
    if replayed_gets - cspent.gets != saved:
        raise ReproError(
            f"coalescing accounts do not balance: {replayed_gets} gets "
            f"replayed serially - {cspent.gets} served != {saved} coalesced"
        )
    if saved <= 0:
        raise ReproError(
            f"coalescing saved nothing: {cspent.gets} routed gets vs "
            f"{replayed_gets} replayed serially at concurrency "
            f"{_SERVE_PARAMS['max_in_flight']}"
        )
    completed = cspent.serve_requests
    if completed <= 0:
        raise ReproError("serving workload completed no requests")
    percentiles = index.dht.metrics.latency_percentiles()
    metrics = {
        "latency_p50_s": percentiles["p50"],
        "latency_p90_s": percentiles["p90"],
        "latency_p99_s": percentiles["p99"],
        "sim_seconds_per_request": crun.sim_seconds / completed,
        "routed_ops_per_request": cspent.dht_lookups / completed,
        "coalesced_routed_gets": float(cspent.gets),
        "uncoalesced_routed_gets": float(replayed_gets),
    }
    info = {
        "throughput_rps": completed / crun.sim_seconds,
        "gets_saved_by_coalescing": float(saved),
        "batches": float(cspent.serve_batches),
        "rejections": float(cspent.serve_rejections),
        "completed": float(completed),
    }
    return {"params": dict(_SERVE_PARAMS), "metrics": metrics, "info": info}


#: Availability-gate workload shape — its own dict so the earlier
#: baselines stay byte-comparable (their recorded ``params`` must not
#: change when replication knobs do).
_AVAIL_PARAMS = {
    "seed": 1,
    "n_peers": 16,
    "n_keys": 1024,
    "n_probes": 400,
    "theta_split": 32,
    "max_depth": 20,
    "drop_rate": 0.3,
    "ks": [1, 2, 3],
    "identity_ops": 256,
    "identity_drop_rate": 0.2,
}


def _drive_identity(dht, seed: int) -> tuple:
    """One seeded mixed op stream → (snapshot, stored keys)."""
    rng = np.random.default_rng(derive_seed(seed, "bench:avail:identity"))
    for i in range(_AVAIL_PARAMS["identity_ops"]):
        op = rng.random()
        key = f"id-{int(rng.integers(0, 64))}"
        if op < 0.5:
            dht.put(key, i)
        elif op < 0.9:
            dht.get(key)
        else:
            dht.remove(key)
    return dht.metrics.snapshot(), sorted(dht.keys())


def measure_avail(seed: int = 1) -> dict:
    """Availability vs replication factor, and the k=1 no-op proof.

    Every stack is ``registry.stack`` at the root ``seed``, and every
    availability cell is :func:`~repro.experiments.common.availability_cell`
    (E26's one-attempt ``local`` plane at this workload's shape).

    Three hard invariants (raised as :class:`ReproError`, not banked):

    * **k=1 byte-identity** — the same seeded mixed workload driven
      through ``faulty:0.2/local``, through ``replicated:1/…`` over it
      and through ``resilient:1/replicated:1/…`` over it must produce
      identical metrics snapshots and identical stored state: one
      replica and one attempt are pass-throughs, so enabling the layers
      costs nothing.
    * **strict monotonicity** — availability at drop rate 0.3 must
      strictly increase k=1 → k=2 → k=3 (the E26 acceptance shape).
    * **failover liveness** — replicated probes (k>1) must record at
      least one ``replica_failovers`` rescue under drops.

    Gated (lower-is-better): ``unavailability_at_k*`` (1 − availability)
    and ``build_puts_per_key_k*`` (replica put amplification).  The
    higher-is-better ``availability_at_k*`` views ride along in
    ``info``, with replica probe traffic per probe.
    """
    p = _AVAIL_PARAMS

    # --- invariant 1: the k=1 path is byte-identical to no layer ------
    faulty = f"faulty:{p['identity_drop_rate']}/local"
    bare = _drive_identity(registry.stack(faulty, p["n_peers"], seed), seed)
    for layers in ("replicated:1/", "resilient:1/replicated:1/"):
        wrapped = registry.stack(layers + faulty, p["n_peers"], seed)
        if _drive_identity(wrapped, seed) != bare:
            raise ReproError(
                f"{layers + faulty} diverged from {faulty}: one replica "
                "and one attempt must be byte-identical pass-throughs"
            )

    # --- availability × replication factor ----------------------------
    config = IndexConfig(theta_split=p["theta_split"], max_depth=p["max_depth"])
    keys = np.random.default_rng(derive_seed(seed, "bench:avail:keys")).random(
        p["n_keys"]
    )
    sample = np.random.default_rng(
        derive_seed(seed, "bench:avail:probes")
    ).choice(keys, size=p["n_probes"], replace=False)
    metrics: dict[str, float] = {}
    info: dict[str, float] = {}
    availability: dict[int, float] = {}
    for k in p["ks"]:
        cell = availability_cell(
            "local", k, 1, p["drop_rate"], p["n_peers"], seed, config,
            keys, sample,
        )
        availability[k] = cell.availability
        metrics[f"build_puts_per_key_k{k}"] = cell.build.puts / p["n_keys"]
        metrics[f"unavailability_at_k{k}"] = 1.0 - cell.availability
        info[f"availability_at_k{k}"] = cell.availability
        info[f"replica_probe_gets_per_probe_k{k}"] = (
            cell.probes.replica_probe_gets / p["n_probes"]
        )
        info[f"replica_failovers_k{k}"] = float(cell.probes.replica_failovers)
        if k > 1 and cell.probes.replica_failovers == 0:
            raise ReproError(
                f"k={k} under drop rate {p['drop_rate']} recorded no "
                "replica failovers: the degraded-read path is dead"
            )

    ks = p["ks"]
    increasing = all(
        availability[a] < availability[b] for a, b in zip(ks, ks[1:])
    )
    if not increasing:
        raise ReproError(
            "availability must strictly increase with replication "
            f"factor at drop rate {p['drop_rate']}: "
            + ", ".join(f"k={k}: {availability[k]:.4f}" for k in ks)
        )
    return {"params": dict(_AVAIL_PARAMS), "metrics": metrics, "info": info}


#: The two ``--hotspots`` workload shapes.  ``full`` is the paper-scale
#: run (2^20 keys, 1024 peers); ``smoke`` is the same pipeline small
#: enough for a CI leg.
SCALE_PROFILES: dict[str, dict[str, Any]] = {
    "smoke": {
        "seed": 1,
        "n_keys": 1 << 14,
        "n_peers": 128,
        "n_probes": 2000,
        "n_ranges": 8,
        "theta_split": 100,
        "max_depth": 24,
        "probe_skew": 1.1,
        "range_lo_max": 0.99,
        "range_width_min": 0.0005,
        "range_width_max": 0.002,
    },
    "full": {
        "seed": 1,
        "n_keys": 1 << 20,
        "n_peers": 1024,
        "n_probes": 20000,
        "n_ranges": 32,
        "theta_split": 100,
        "max_depth": 24,
        "probe_skew": 1.1,
        "range_lo_max": 0.99,
        "range_width_min": 0.0005,
        "range_width_max": 0.002,
    },
}

#: Hot spots ``--hotspots`` prints per phase.
HOTSPOT_ROWS = 12


@dataclass(slots=True)
class PhaseResult:
    """One scale phase: workload counts and hot spots.

    ``hotspots`` rows are ``{"function", "calls", "tottime_s",
    "cumtime_s"}`` ranked by descending call count (ties broken by
    function name) — the deterministic ordering; the profiler's times
    are display only.
    """

    name: str
    counts: dict[str, float]
    hotspots: list[dict[str, Any]]


def _normalize_function(filename: str, line: int, func: str) -> str:
    """A host-independent display name for one profiled function."""
    if filename.startswith("~") or filename.startswith("<"):
        return f"<builtin>:{func}"
    parts = Path(filename).parts
    for anchor in ("repro", "site-packages"):
        if anchor in parts:
            tail = "/".join(parts[parts.index(anchor):])
            return f"{tail}:{line}:{func}"
    return f"{Path(filename).name}:{line}:{func}"


def _hotspots(profiler: cProfile.Profile) -> list[dict[str, Any]]:
    profiler.create_stats()
    rows = [
        {
            "function": _normalize_function(*key),
            "calls": int(nc),
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        }
        for key, (cc, nc, tt, ct, _callers) in profiler.stats.items()  # type: ignore[attr-defined]
    ]
    rows.sort(key=lambda r: (-r["calls"], r["function"]))
    return rows[:HOTSPOT_ROWS]


def run_scale_phases(params: dict[str, Any]) -> list[PhaseResult]:
    """Run the build/lookup/range phases of one scale workload.

    Each phase runs under its own :class:`cProfile.Profile` and reports
    its :data:`HOTSPOT_ROWS` hot spots.  Workload generation (key draws,
    probe streams, range endpoints) sits *outside* the profiled
    sections, so the phases profile index work only.
    """
    seed = params["seed"]
    rng = np.random.default_rng(derive_seed(seed, "scale:keys"))
    keys = [float(k) for k in rng.random(params["n_keys"])]
    dht = LocalDHT(n_peers=params["n_peers"], seed=derive_seed(seed, "scale:sub"))
    index = LHTIndex(
        dht,
        IndexConfig(
            theta_split=params["theta_split"], max_depth=params["max_depth"]
        ),
    )
    phases: list[PhaseResult] = []

    def profiled(name: str, fn: Callable[[], Any]) -> Any:
        profiler = cProfile.Profile()
        profiler.enable()
        out = fn()
        profiler.disable()
        phases.append(PhaseResult(name, {}, _hotspots(profiler)))
        return out

    profiled("build", lambda: index.bulk_load(keys, fast=True))
    phases[-1].counts = {"leaves": float(index.leaf_count)}

    prng = np.random.default_rng(derive_seed(seed, "scale:probes"))
    probes = [
        float(k)
        for k in zipf_rank_choice(
            np.asarray(keys), params["probe_skew"], params["n_probes"], prng
        )
    ]
    before = dht.metrics.snapshot()

    def lookup() -> None:
        for key in probes:
            index.exact_match(key)

    profiled("lookup", lookup)
    phases[-1].counts = {
        "lookup_gets": float((dht.metrics.snapshot() - before).gets)
    }

    rrng = np.random.default_rng(derive_seed(seed, "scale:ranges"))
    spans = [
        (
            lo := float(rrng.uniform(0.0, params["range_lo_max"])),
            float(
                min(
                    1.0,
                    lo
                    + rrng.uniform(
                        params["range_width_min"], params["range_width_max"]
                    ),
                )
            ),
        )
        for _ in range(params["n_ranges"])
    ]

    def ranges() -> int:
        got = 0
        for lo, hi in spans:
            got += len(index.range_query(lo, hi).records)
        return got

    got = profiled("range", ranges)
    phases[-1].counts = {"range_records": float(got)}
    return phases


def _format_hotspots(profile: str, phases: list[PhaseResult]) -> str:
    """Human-readable per-phase hot-spot report."""
    lines = [f"scale profile '{profile}'"]
    for phase in phases:
        counts = ", ".join(f"{k}={v:g}" for k, v in sorted(phase.counts.items()))
        lines.append(f"\n== {phase.name}: ({counts})")
        lines.append(f"{'calls':>10}  {'tottime':>9}  {'cumtime':>9}  function")
        for row in phase.hotspots:
            lines.append(
                f"{row['calls']:>10}  {row['tottime_s']:>9.4f}  "
                f"{row['cumtime_s']:>9.4f}  {row['function']}"
            )
    return "\n".join(lines)


def compare(
    current: Mapping[str, float], baseline: Mapping[str, float]
) -> list[str]:
    """Violations of ``current <= baseline`` per metric.

    Every gated metric is a seed-deterministic count or simulated time,
    so any rise — down to one ulp — is a regression.  Comparison runs
    over the *baseline's* keys: metrics added since a baseline was
    written are not gated until ``--write`` records them (mirroring
    snapshot-counter accretion), but a metric the current measurement
    *lost* is itself a violation — a silently renamed metric must not
    un-gate a regression.
    """
    violations: list[str] = []
    for name, base in baseline.items():
        if name not in current:
            violations.append(f"{name}: missing from current measurement")
            continue
        if current[name] > base:
            violations.append(
                f"{name}: {current[name]!r} exceeds baseline {base!r}"
            )
    return violations


def _check_file(path: Path, current: dict) -> list[str]:
    if not path.exists():
        return [f"{path.name}: baseline missing (run --write)"]
    baseline = json.loads(path.read_text())
    if baseline.get("params") != current["params"]:
        return [
            f"{path.name}: workload parameters changed; refresh with --write"
        ]
    return [
        f"{path.name}: {v}"
        for v in compare(current["metrics"], baseline["metrics"])
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools benchgate",
        description="Count-based benchmark regression gate.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true", help="refresh the checked-in baselines"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="compare against the baselines (default)",
    )
    mode.add_argument(
        "--hotspots",
        action="store_true",
        help="profile the scale workload (--scale-profile) and print each "
        "phase's hot spots; gates and writes nothing",
    )
    parser.add_argument("--seed", type=int, default=_PARAMS["seed"])
    parser.add_argument(
        "--only",
        choices=("lookup", "range", "build", "serve", "avail"),
        action="append",
        default=None,
        help="measure only these gates (repeatable; default: all)",
    )
    parser.add_argument(
        "--scale-profile",
        choices=sorted(SCALE_PROFILES),
        default="full",
        help="workload shape for --hotspots (default: full)",
    )
    args = parser.parse_args(argv)

    if args.hotspots:
        params = {**SCALE_PROFILES[args.scale_profile], "seed": args.seed}
        phases = run_scale_phases(params)
        print(_format_hotspots(args.scale_profile, phases))
        return 0

    suites = {
        "lookup": (LOOKUP_BASELINE, measure_lookup),
        "range": (RANGE_BASELINE, measure_range),
        "build": (BUILD_BASELINE, measure_build),
        "serve": (SERVE_BASELINE, measure_serve),
        "avail": (AVAIL_BASELINE, measure_avail),
    }
    measurements = {
        suites[name][0]: suites[name][1](args.seed)
        for name in (args.only or suites)
    }
    if args.write:
        for path, current in measurements.items():
            path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
        return 0

    failures: list[str] = []
    for path, current in measurements.items():
        failures.extend(_check_file(path, current))
        for name, value in current["metrics"].items():
            print(f"{path.name}: {name} = {value:.4f}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}")
        return 1
    print("benchgate: no metric above its baseline")
    return 0


if __name__ == "__main__":  # the job runs only through the package CLI
    raise SystemExit("run this job as: python -m repro.devtools benchgate")
