"""Same-seed determinism harness: run a workload twice, diff the traces.

Every figure in EXPERIMENTS.md claims to be reproducible from a root
seed.  This module turns that claim into a mechanical check: it runs a
mixed insert/delete/lookup/range workload against a freshly built LHT
index, records a canonical per-operation event trace (costs, record
counts, splits, merges, plus a final structural digest), repeats the run
with the same seed, and reports the first divergence if the traces are
not byte-identical.

Exposed three ways:

* :func:`check_determinism` — library entry point returning a
  :class:`DeterminismReport`;
* ``python -m repro.devtools.determinism --substrate chord`` — CLI;
* the ``assert_deterministic`` pytest fixture in ``tests/conftest.py``.

All randomness flows through :class:`repro.sim.rng.RngStreams`, so the
harness itself upholds the rule it checks (see ``repro.devtools.lint``
rule LHT002).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.core.stats import IndexInspector
from repro.dht import registry
from repro.dht.base import DHT
from repro.dht.faulty import FaultyDHT
from repro.dht.local import LocalDHT
from repro.dht.replicated import ReplicatedDHT
from repro.dht.serializing import SerializingDHT
from repro.errors import ConfigurationError, DeterminismError, ReproError
from repro.resilience.wrapper import ResilientDHT
from repro.sim.rng import RngStreams, derive_seed
from repro.workloads.trace import OpType, generate_trace

__all__ = [
    "SUBSTRATES",
    "DeterminismReport",
    "check_determinism",
    "run_workload",
    "trace_digest",
]


def _make_resilient_local(n_peers: int, seed: int) -> DHT:
    """ResilientDHT over a lossy LocalDHT: exercises the retry/breaker
    layer end-to-end — drops, backoff jitter, and degraded outcomes must
    all replay identically from the root seed."""
    faulty = FaultyDHT(
        LocalDHT(n_peers=n_peers, seed=seed),
        get_drop_rate=0.1,
        seed=derive_seed(seed, "faults"),
    )
    return ResilientDHT(faulty, seed=derive_seed(seed, "retries"))


def _make_serializing_local(n_peers: int, seed: int) -> DHT:
    """SerializingDHT over LocalDHT: the trace must equal ``local``'s —
    the index cannot tell a byte store from a reference store."""
    return SerializingDHT(LocalDHT(n_peers=n_peers, seed=seed))


def _make_deploy_local(n_peers: int, seed: int) -> DHT:
    """Resilient(Replicated3(Faulty 2 %(Serializing(LocalDHT)))), the
    ``bench/stacks.py`` deployment stack — the only arm with a replica
    layer, so the read path's failover branch replays under the gate."""
    faulty = FaultyDHT(
        _make_serializing_local(n_peers, seed),
        get_drop_rate=0.02,
        seed=derive_seed(seed, "faults"),
    )
    return ResilientDHT(
        ReplicatedDHT(faulty, n_replicas=3), seed=derive_seed(seed, "retries")
    )


#: Substrate name -> factory ``(n_peers, seed) -> DHT``: every substrate
#: enrolled in ``repro.dht.registry``, plus four wrapper arms.
SUBSTRATES: dict[str, Callable[[int, int], DHT]] = {
    **registry.factories(),
    "resilient-local": _make_resilient_local,
    "serializing-local": _make_serializing_local,
    "deploy-local": _make_deploy_local,
    # The cache is index-level, not DHT-level: this arm runs the
    # registry's local substrate with ``cache_enabled`` turned on in the
    # IndexConfig (see ``run_workload``), at a small capacity so
    # eviction, split and merge invalidation, and stale-entry fallbacks
    # all replay.
    "cached-local": registry.spec("local").factory,
}

#: Substrates that enable the leaf cache on the *index* they drive.
_CACHED_SUBSTRATES = frozenset({"cached-local"})


def run_workload(
    seed: int = 0,
    substrate: str = "local",
    n_ops: int = 300,
    n_peers: int = 16,
    theta_split: int = 8,
    distribution: str = "uniform",
) -> list[str]:
    """Build an index, replay a generated workload, return its event trace.

    The trace is a list of canonical strings, one per operation, capturing
    everything observable about the run: the operation, its subject key,
    its DHT-lookup cost, the index's record/leaf counts afterwards, and
    any split or merge events.  A final line digests the end-state leaf
    structure and key multiset through the oracle inspector, which first
    verifies it: a digest is only ever taken of a state that satisfies
    the paper's invariants (:func:`repro.core.stats.check_structure`).
    """
    if substrate not in SUBSTRATES:
        raise ConfigurationError(
            f"unknown substrate {substrate!r}; pick one of "
            f"{sorted(SUBSTRATES)}"
        )
    streams = RngStreams(seed)
    trace = generate_trace(n_ops, streams.stream("workload"), distribution)
    dht = SUBSTRATES[substrate](n_peers, derive_seed(seed, "substrate"))
    config = IndexConfig(
        theta_split=theta_split,
        cache_enabled=substrate in _CACHED_SUBSTRATES,
        cache_capacity=32,
    )
    index = LHTIndex(dht, config)

    events: list[str] = []
    for step, operation in enumerate(trace):
        # Faulty substrates (e.g. the resilient-local stack) may fail an
        # operation even after retries; the *failure itself* must replay
        # deterministically, so it becomes a trace event rather than an
        # abort.  Fault-free substrates never take this path.
        try:
            if operation.op is OpType.INSERT:
                result = index.insert(operation.key)
                cost = result.dht_lookups
                detail = f" split={result.split.parent}" if result.split else ""
            elif operation.op is OpType.DELETE:
                dresult = index.delete(operation.key)
                cost = dresult.dht_lookups
                detail = f" deleted={dresult.deleted}"
                if dresult.merges:
                    merged = ",".join(str(m.survivor) for m in dresult.merges)
                    detail += f" merged={merged}"
            elif operation.op is OpType.LOOKUP:
                record, cost = index.exact_match(operation.key)
                detail = f" hit={record is not None}"
            else:
                hi = operation.hi if operation.hi is not None else operation.key
                rresult = index.range_query(operation.key, hi)
                cost = rresult.dht_lookups
                detail = f" hi={hi!r} n={len(rresult.records)}"
        except ReproError as exc:
            cost = 0
            detail = f" error={type(exc).__name__}"
        events.append(
            f"{step:05d} {operation.op.value} key={operation.key!r} "
            f"cost={cost} records={index.record_count} "
            f"leaves={index.leaf_count}{detail}"
        )

    inspector = IndexInspector(dht)
    inspector.verify()
    stats = inspector.stats()
    keys_digest = hashlib.sha256(
        ",".join(repr(k) for k in inspector.all_keys()).encode()
    ).hexdigest()[:16]
    events.append(
        f"final leaves={stats.n_leaves} records={stats.n_records} "
        f"max_depth={stats.max_depth} keys_sha={keys_digest}"
    )
    return events


def trace_digest(events: Sequence[str]) -> str:
    """Stable digest of a whole event trace."""
    return hashlib.sha256("\n".join(events).encode()).hexdigest()


@dataclass(frozen=True, slots=True)
class DeterminismReport:
    """Outcome of comparing same-seed runs."""

    matched: bool
    runs: int
    seed: int
    substrate: str
    digests: tuple[str, ...]
    first_divergence: int | None
    diff: tuple[str, ...]

    def summary(self) -> str:
        if self.matched:
            return (
                f"deterministic: {self.runs} run(s) of seed {self.seed} on "
                f"{self.substrate!r} share digest {self.digests[0][:16]}"
            )
        lines = [
            f"NON-DETERMINISTIC: seed {self.seed} on {self.substrate!r} "
            f"diverges at trace line {self.first_divergence}:"
        ]
        lines.extend(self.diff)
        return "\n".join(lines)

    def raise_if_diverged(self) -> None:
        if not self.matched:
            raise DeterminismError(self.summary())


def _first_divergence(
    reference: Sequence[str], other: Sequence[str]
) -> tuple[int, list[str]]:
    limit = max(len(reference), len(other))
    for i in range(limit):
        a = reference[i] if i < len(reference) else "<trace ended>"
        b = other[i] if i < len(other) else "<trace ended>"
        if a != b:
            return i, [f"  run 0: {a}", f"  run n: {b}"]
    return -1, []


def check_determinism(
    seed: int = 0,
    substrate: str = "local",
    runs: int = 2,
    **workload_kwargs: object,
) -> DeterminismReport:
    """Run the workload ``runs`` times with one seed and diff the traces."""
    if runs < 2:
        raise ConfigurationError(f"need at least 2 runs to compare: {runs}")
    traces = [
        run_workload(seed=seed, substrate=substrate, **workload_kwargs)  # type: ignore[arg-type]
        for _ in range(runs)
    ]
    digests = tuple(trace_digest(t) for t in traces)
    first_divergence: int | None = None
    diff: tuple[str, ...] = ()
    for trace in traces[1:]:
        index, lines = _first_divergence(traces[0], trace)
        if index >= 0:
            first_divergence, diff = index, tuple(lines)
            break
    return DeterminismReport(
        matched=first_divergence is None,
        runs=runs,
        seed=seed,
        substrate=substrate,
        digests=digests,
        first_divergence=first_divergence,
        diff=diff,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.determinism",
        description="Replay a seeded workload twice and diff the traces.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--substrate", choices=sorted(SUBSTRATES), default="local"
    )
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--peers", type=int, default=16)
    parser.add_argument("--theta", type=int, default=8)
    parser.add_argument("--runs", type=int, default=2)
    args = parser.parse_args(argv)

    try:
        report = check_determinism(
            seed=args.seed,
            substrate=args.substrate,
            runs=args.runs,
            n_ops=args.ops,
            n_peers=args.peers,
            theta_split=args.theta,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.matched else 1


if __name__ == "__main__":
    sys.exit(main())
