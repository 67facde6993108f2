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
instead of a human's memory.

The ``scale`` suite (``BENCH_scale.json``) additionally banks the
*wall-clock* of the paper-scale build/lookup/range workload from
:mod:`repro.devtools.profile`.  Wall seconds drift with the host, so
they get a much wider per-profile tolerance band
(:data:`SCALE_WALL_TOLERANCE`) than the exact counts — the band catches
an order-of-magnitude hot-path regression without flaking on machine
noise.

Usage::

    python -m repro.devtools.benchgate --check           # gate (default)
    python -m repro.devtools.benchgate --write           # refresh baselines

The pytest gate (``tests/test_bench_regression.py``, marked ``bench``)
runs the same measurement and fails on any metric that regresses more
than :data:`TOLERANCE` over its baseline.  Improvements are accepted
silently — refresh the baselines with ``--write`` to bank them.  All
gated metrics are lower-is-better.
"""

from __future__ import annotations

import argparse
import json
import time
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht.base import DHT
from repro.dht.faulty import FaultyDHT
from repro.dht.local import LocalDHT
from repro.dht.replicated import ReplicatedDHT
from repro.errors import ReproError
from repro.experiments.common import (
    SUBSTRATES,
    hops_per_lookup,
    make_dht,
    probe_stored,
    zipf_probe_cost,
)
from repro.devtools.profile import SCALE_PROFILES, run_scale_phases
from repro.serve import (
    Request,
    RequestKind,
    ServeConfig,
    ServeEngine,
    WorkloadConfig,
    generate_workload,
)
from repro.sim.rng import derive_seed

__all__ = [
    "TOLERANCE",
    "SCALE_WALL_TOLERANCE",
    "LOOKUP_BASELINE",
    "RANGE_BASELINE",
    "BUILD_BASELINE",
    "SERVE_BASELINE",
    "SCALE_BASELINE",
    "AVAIL_BASELINE",
    "measure_lookup",
    "measure_range",
    "measure_build",
    "measure_serve",
    "measure_scale",
    "measure_avail",
    "compare",
    "main",
]

#: Allowed relative regression before the gate fails.
TOLERANCE = 0.10

#: Allowed relative wall-clock regression for the ``scale`` suite, per
#: workload shape.  Wall seconds are host-dependent, so the bands are
#: wide: the banked ``full`` numbers may double before the gate trips,
#: and the sub-second ``smoke`` shape (where fixed overheads dominate)
#: may quadruple — loose enough for CI runners, tight enough that
#: reverting the hot-path work (a ~4x build slowdown) still fails.
SCALE_WALL_TOLERANCE = {"full": 1.0, "smoke": 3.0}

_REPO_ROOT = Path(__file__).resolve().parents[3]
LOOKUP_BASELINE = _REPO_ROOT / "BENCH_lookup.json"
RANGE_BASELINE = _REPO_ROOT / "BENCH_range.json"
BUILD_BASELINE = _REPO_ROOT / "BENCH_build.json"
SERVE_BASELINE = _REPO_ROOT / "BENCH_serve.json"
SCALE_BASELINE = _REPO_ROOT / "BENCH_scale.json"
AVAIL_BASELINE = _REPO_ROOT / "BENCH_avail.json"

#: Pre-PR phase wall-clock on the reference host, measured at the tip of
#: the serving-layer PR (the commit before the hot-path overhaul) with
#: the exact workload of :data:`repro.devtools.profile.SCALE_PROFILES`.
#: Recorded so every ``scale`` measurement reports its speedup against
#: the state this PR optimised — informational, never gated.
_PRE_PR_WALL_S = {
    "full": {"build_s": 10.4015, "lookup_s": 0.8081, "range_s": 0.1482},
    "smoke": {"build_s": 0.0817, "lookup_s": 0.0673, "range_s": 0.0016},
}

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
    "hops_n_peers": 32,
    "hops_n_ops": 64,
    "hops_index_n_peers": 16,
    "hops_index_n_keys": 256,
    "hops_index_theta": 8,
    "hops_index_n_ranges": 8,
}


def _build(seed: int, *, cache_capacity: int | None) -> tuple[LHTIndex, list[float]]:
    dht = LocalDHT(n_peers=16, seed=derive_seed(seed, "bench:sub"))
    config = IndexConfig(
        theta_split=_PARAMS["theta_split"],
        max_depth=_PARAMS["max_depth"],
        cache_enabled=cache_capacity is not None,
        cache_capacity=cache_capacity if cache_capacity is not None else 1024,
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
    metrics.update(_substrate_hops("put+get", partial(_put_get_workload, seed)))
    return {"params": dict(_PARAMS), "metrics": metrics}


#: A per-substrate hop workload: the overlay it runs on, and the step
#: whose routed traffic is measured (setup has already happened).
_Measured = tuple[DHT, Callable[[], object]]


def _substrate_hops(
    what: str, prepare: Callable[[str], _Measured]
) -> dict[str, float]:
    """Routed hops per DHT-lookup of one workload, on every registered
    substrate (kernel-charged; the E13/E25 cell, so the workload's
    DHT-lookup count must also be the same on every overlay).

    The index-level gates above run over :class:`LocalDHT`'s synthetic
    hop model; this is the *physical* routing cost the same seeded
    workload pays on each real overlay, so a topology change that
    silently lengthens routes fails the gate like any other count.
    """
    reference: dict = {}
    return {
        f"hops_per_op_{name}": hops_per_lookup(
            name, *prepare(name), what, reference
        )
        for name in sorted(SUBSTRATES)
    }


def _put_get_workload(seed: int, name: str) -> _Measured:
    """One fixed put+get workload on the bare substrate."""
    dht = make_dht(name, _PARAMS["hops_n_peers"], derive_seed(seed, "bench:hops"))
    n_ops = _PARAMS["hops_n_ops"]

    def measured() -> None:
        for i in range(n_ops):
            dht.put(f"hop-key-{i}", i)
        for i in range(n_ops):
            dht.get(f"hop-key-{i}")

    return dht, measured


def _hops_index(seed: int, name: str) -> tuple[LHTIndex, list[float]]:
    """An empty small LHT index over one substrate and the seeded keys
    to load it with — the same shape and keys on every overlay, so
    index-level get counts are substrate-invariant and only topology
    moves the hop numbers."""
    dht = make_dht(
        name, _PARAMS["hops_index_n_peers"], derive_seed(seed, "bench:hops:index")
    )
    config = IndexConfig(
        theta_split=_PARAMS["hops_index_theta"], max_depth=_PARAMS["max_depth"]
    )
    rng = np.random.default_rng(derive_seed(seed, "bench:hops:index-keys"))
    keys = [float(k) for k in rng.random(_PARAMS["hops_index_n_keys"])]
    return LHTIndex(dht, config), keys


def _build_workload(seed: int, name: str) -> _Measured:
    """The bulk build of the small index."""
    index, keys = _hops_index(seed, name)
    return index.dht, lambda: index.bulk_load(keys)


def _range_workload(seed: int, name: str) -> _Measured:
    """Seeded range queries over the built small index."""
    index, keys = _hops_index(seed, name)
    index.bulk_load(keys)
    rng = np.random.default_rng(derive_seed(seed, "bench:hops:ranges"))

    def measured() -> None:
        for _ in range(_PARAMS["hops_index_n_ranges"]):
            lo = float(rng.uniform(0.0, 0.9))
            hi = float(min(1.0, lo + rng.uniform(0.01, 0.4)))
            index.range_query(lo, hi)

    return index.dht, measured


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
    metrics.update(_substrate_hops("ranges", partial(_range_workload, seed)))
    return {"params": dict(_PARAMS), "metrics": metrics}


def measure_build(seed: int = 1) -> dict:
    """Bulk-build counts: incremental replay vs the sorted fast path.

    Gated metrics are the routed put and records-moved counts per key
    for both paths (all deterministic and lower-is-better); the fast
    path's put count must equal the final leaf count, so any stray
    extra put fails the gate.  Wall-clock seconds and the resulting
    speedup ride along under ``info`` — recorded for visibility, never
    compared, because they drift with the host.
    """
    n = _PARAMS["n_keys"]
    rng = np.random.default_rng(derive_seed(seed, "bench:keys"))
    keys = [float(k) for k in rng.random(n)]
    config = IndexConfig(
        theta_split=_PARAMS["theta_split"], max_depth=_PARAMS["max_depth"]
    )

    counts: dict[str, float] = {}
    info: dict[str, float] = {}
    for arm, fast in (("incremental", False), ("fast", True)):
        dht = LocalDHT(n_peers=16, seed=derive_seed(seed, "bench:sub"))
        index = LHTIndex(dht, config)
        before = dht.metrics.snapshot()
        started = time.perf_counter()
        index.bulk_load(keys, fast=fast)
        info[f"{arm}_build_s"] = time.perf_counter() - started
        spent = dht.metrics.snapshot() - before
        counts[f"{arm}_puts_per_key"] = spent.puts / n
        counts[f"{arm}_moved_per_key"] = spent.records_moved / n
        if fast and spent.puts != index.leaf_count:
            raise ReproError(
                f"fast bulk-build issued {spent.puts} puts for "
                f"{index.leaf_count} leaves"
            )
    if info["fast_build_s"] > 0:
        info["speedup"] = info["incremental_build_s"] / info["fast_build_s"]
    counts.update(_substrate_hops("build", partial(_build_workload, seed)))
    return {"params": dict(_PARAMS), "metrics": counts, "info": info}


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


def _replay_serially(index: LHTIndex, request: Request) -> object:
    """One served request through the plain index API (the reference)."""
    if request.kind is RequestKind.LOOKUP:
        return index.exact_match(request.key)[0]
    if request.kind is RequestKind.INSERT:
        return index.insert(request.key, request.value).leaf.bits
    if request.kind is RequestKind.REMOVE:
        return index.delete(request.key).deleted
    return tuple(index.range_query(request.key, request.hi).records)


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
    per request.  ``info`` carries the higher-is-better or derived views
    (throughput, gets saved, batches, rejections).  The served run must
    issue *strictly fewer* routed gets than the serial replay at this
    concurrency (``max_in_flight`` ≥ 8) — a hard invariant, not a
    tolerance-gated count.
    """
    workload_config = WorkloadConfig(
        n_requests=_SERVE_PARAMS["n_requests"],
        rate=_SERVE_PARAMS["rate"],
        skew=_SERVE_PARAMS["skew"],
        mix=dict(_SERVE_PARAMS["mix"]),
        n_sessions=_SERVE_PARAMS["n_sessions"],
    )
    index, keys = _serve_index(seed)
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
    cspent = index.dht.metrics.snapshot()

    twin, _ = _serve_index(seed)
    for i in crun.executed_order:
        expected = _replay_serially(twin, workload[i].request)
        if crun.responses[i].answer != expected:
            raise ReproError(
                f"served answer {i} differs from its serial replay: "
                f"{crun.responses[i].answer!r} != {expected!r}"
            )
    replayed_gets = twin.dht.metrics.gets
    if cspent.gets >= replayed_gets:
        raise ReproError(
            f"coalescing saved nothing: {cspent.gets} routed gets vs "
            f"{replayed_gets} replayed serially at concurrency "
            f"{_SERVE_PARAMS['max_in_flight']}"
        )
    completed = len(crun.responses) - crun.rejected
    if completed <= 0:
        raise ReproError("serving workload completed no requests")
    metrics = {
        "latency_p50_s": crun.percentiles["p50"],
        "latency_p90_s": crun.percentiles["p90"],
        "latency_p99_s": crun.percentiles["p99"],
        "sim_seconds_per_request": crun.sim_seconds / completed,
        "routed_ops_per_request": cspent.dht_lookups / completed,
        "coalesced_routed_gets": float(cspent.gets),
        "uncoalesced_routed_gets": float(replayed_gets),
    }
    info = {
        "throughput_rps": completed / crun.sim_seconds,
        "gets_saved_by_coalescing": float(crun.coalesced_saved),
        "batches": float(crun.batches),
        "rejections": float(crun.rejected),
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


def _avail_faulty(seed: int, tag: str) -> FaultyDHT:
    return FaultyDHT(
        LocalDHT(
            n_peers=_AVAIL_PARAMS["n_peers"],
            seed=derive_seed(seed, "bench:avail:sub"),
        ),
        seed=derive_seed(seed, f"bench:avail:faults:{tag}"),
    )


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

    Three hard invariants (raised as :class:`ReproError`, not
    tolerance-gated):

    * **k=1 byte-identity** — the same seeded mixed workload driven
      through ``FaultyDHT(LocalDHT)`` bare and through
      ``ReplicatedDHT(..., n_replicas=1)`` must produce identical
      metrics snapshots and identical stored state: single-replica
      placement is a pass-through, so enabling the layer costs nothing.
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
    bare = _avail_faulty(seed, "identity")
    bare.get_drop_rate = p["identity_drop_rate"]
    wrapped_inner = _avail_faulty(seed, "identity")
    wrapped_inner.get_drop_rate = p["identity_drop_rate"]
    wrapped = ReplicatedDHT(wrapped_inner, n_replicas=1)
    if _drive_identity(bare, seed) != _drive_identity(wrapped, seed):
        raise ReproError(
            "ReplicatedDHT(n_replicas=1) diverged from the bare stack: "
            "the k=1 path must be a byte-identical pass-through"
        )

    # --- availability × replication factor ----------------------------
    metrics: dict[str, float] = {}
    info: dict[str, float] = {}
    availability: dict[int, float] = {}
    for k in p["ks"]:
        faulty = _avail_faulty(seed, f"k{k}")
        dht = ReplicatedDHT(faulty, n_replicas=k)
        index = LHTIndex(
            dht,
            IndexConfig(
                theta_split=p["theta_split"], max_depth=p["max_depth"]
            ),
        )
        rng = np.random.default_rng(derive_seed(seed, "bench:avail:keys"))
        keys = [float(x) for x in rng.random(p["n_keys"])]
        before = dht.metrics.snapshot()
        index.bulk_load(keys, fast=True)
        built = dht.metrics.since(before)
        metrics[f"build_puts_per_key_k{k}"] = built.puts / p["n_keys"]

        # Faults start after the build: every probed key is stored.
        faulty.get_drop_rate = p["drop_rate"]
        prng = np.random.default_rng(derive_seed(seed, "bench:avail:probes"))
        sample = prng.choice(
            np.asarray(keys), size=p["n_probes"], replace=False
        )
        hits, spent = probe_stored(index, sample)
        availability[k] = hits / p["n_probes"]
        metrics[f"unavailability_at_k{k}"] = 1.0 - availability[k]
        info[f"availability_at_k{k}"] = availability[k]
        info[f"replica_probe_gets_per_probe_k{k}"] = (
            spent.replica_probe_gets / p["n_probes"]
        )
        info[f"replica_failovers_k{k}"] = float(spent.replica_failovers)
        if k > 1 and spent.replica_failovers == 0:
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


def measure_scale(seed: int = 1, profile: str = "full") -> dict:
    """Paper-scale wall-clock and counts for one workload shape.

    Runs the shared :func:`repro.devtools.profile.run_scale_phases`
    pipeline (2^20 keys over 1024 peers at ``full`` scale) without the
    profiler and returns two gated sections: ``counts`` (exact,
    seed-reproducible — leaf count, routed lookup gets, range records —
    gated at :data:`TOLERANCE`) and ``wall_s`` (per-phase seconds, gated
    at the wide :data:`SCALE_WALL_TOLERANCE` band for the shape).
    ``info`` records the pre-PR wall-clock and the resulting speedups.
    """
    if profile not in SCALE_PROFILES:
        raise ReproError(f"unknown scale profile {profile!r}")
    params = dict(SCALE_PROFILES[profile])
    params["seed"] = seed
    phases = run_scale_phases(params)
    counts: dict[str, float] = {}
    wall: dict[str, float] = {}
    for phase in phases:
        wall[f"{phase.name}_s"] = round(phase.seconds, 4)
        counts.update(phase.counts)
    info = {
        f"pre_pr_{name}": value for name, value in _PRE_PR_WALL_S[profile].items()
    }
    for name, value in wall.items():
        if value > 0:
            info[f"{name[:-2]}_speedup_vs_pre_pr"] = round(
                _PRE_PR_WALL_S[profile][name] / value, 2
            )
    return {
        "profile": profile,
        "params": params,
        "counts": counts,
        "wall_s": wall,
        "info": info,
    }


def compare(
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    tolerance: float = TOLERANCE,
) -> list[str]:
    """Violations of ``current <= baseline * (1 + tolerance)`` per metric.

    Comparison runs over the *baseline's* keys: metrics added since a
    baseline was written are not gated until ``--write`` records them
    (mirroring snapshot-counter accretion), but a metric the current
    measurement *lost* is itself a violation — a silently renamed metric
    must not un-gate a regression.
    """
    violations: list[str] = []
    for name, base in baseline.items():
        if name not in current:
            violations.append(f"{name}: missing from current measurement")
            continue
        limit = base * (1.0 + tolerance)
        if current[name] > limit:
            violations.append(
                f"{name}: {current[name]:.4f} exceeds baseline "
                f"{base:.4f} by more than {tolerance:.0%}"
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


def _check_scale(path: Path, current: dict) -> list[str]:
    """Gate one scale measurement against its profile's baseline section.

    ``BENCH_scale.json`` differs from the other baselines: it holds one
    section per workload shape (so the CI smoke leg and the banked full
    run share a file), and its wall-clock block is gated at the wide
    per-shape band rather than :data:`TOLERANCE`.
    """
    if not path.exists():
        return [f"{path.name}: baseline missing (run --write)"]
    profile = current["profile"]
    section = json.loads(path.read_text()).get("profiles", {}).get(profile)
    if section is None:
        return [
            f"{path.name}: no baseline for profile {profile!r}; "
            "refresh with --write"
        ]
    if section.get("params") != current["params"]:
        return [
            f"{path.name}: workload parameters changed; refresh with --write"
        ]
    failures = [
        f"{path.name}: {v}"
        for v in compare(current["counts"], section["counts"])
    ]
    failures.extend(
        f"{path.name}: {v}"
        for v in compare(
            current["wall_s"], section["wall_s"], SCALE_WALL_TOLERANCE[profile]
        )
    )
    return failures


def _write_scale(path: Path, current: dict) -> None:
    """Merge one profile's section into ``BENCH_scale.json``.

    Other profiles' banked sections are preserved, so refreshing the
    smoke shape never discards the (expensive) full-scale numbers.
    """
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("profiles", {})[current["profile"]] = {
        "params": current["params"],
        "counts": current["counts"],
        "wall_s": current["wall_s"],
        "info": current["info"],
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchgate",
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
    parser.add_argument("--seed", type=int, default=_PARAMS["seed"])
    parser.add_argument(
        "--only",
        choices=("lookup", "range", "build", "serve", "scale", "avail"),
        action="append",
        default=None,
        help="measure only these gates (repeatable; default: all but "
        "the paper-scale wall-clock suite)",
    )
    parser.add_argument(
        "--scale-profile",
        choices=sorted(SCALE_PROFILES),
        default="full",
        help="workload shape for the scale suite (default: full)",
    )
    args = parser.parse_args(argv)

    suites = {
        "lookup": (LOOKUP_BASELINE, measure_lookup),
        "range": (RANGE_BASELINE, measure_range),
        "build": (BUILD_BASELINE, measure_build),
        "serve": (SERVE_BASELINE, measure_serve),
        "avail": (AVAIL_BASELINE, measure_avail),
        "scale": (
            SCALE_BASELINE,
            lambda seed: measure_scale(seed, args.scale_profile),
        ),
    }
    # The scale suite times a 2^20-key build, so the default run keeps
    # to the count gates; opt in with ``--only scale``.
    chosen = args.only if args.only else [n for n in suites if n != "scale"]
    measurements = {
        suites[name][0]: suites[name][1](args.seed) for name in chosen
    }
    if args.write:
        for path, current in measurements.items():
            if "profile" in current:
                _write_scale(path, current)
            else:
                path.write_text(
                    json.dumps(current, indent=2, sort_keys=True) + "\n"
                )
            print(f"wrote {path}")
        return 0

    failures: list[str] = []
    for path, current in measurements.items():
        if "profile" in current:
            failures.extend(_check_scale(path, current))
            shown = {**current["counts"], **current["wall_s"]}
        else:
            failures.extend(_check_file(path, current))
            shown = current["metrics"]
        for name, value in shown.items():
            print(f"{path.name}: {name} = {value:.4f}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}")
        return 1
    print("benchgate: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
