"""The six workloads: pure functions of ``(name, seed, scale)``.

Nothing here touches the program under test except its *generators*
(``zipf_rank_choice``, ``generate_workload``, ``derive_seed``): a
workload is the stored key set plus a fixed list of operations, and the
program later receives only those.  Every workload is closed loop — the
next operation of a caller is issued when the previous one returned.

Sizes are what fits five or more repeats of *rebuild + timed phase*
into ``BENCHMARK.json``'s ``run_seconds`` on a 2-core box; ``scale``
divides them (``--smoke`` uses 16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve import RequestKind, WorkloadConfig, generate_workload
from repro.sim.rng import derive_seed
from repro.workloads.queries import zipf_rank_choice

__all__ = [
    "DELETE", "INSERT", "KINDS", "LOOKUP", "MAX", "MIN", "RANGE",
    "SPECS", "Op", "Spec", "Workload", "generate",
]

#: Operation kinds; an op is ``(kind, x, y)`` — ``y`` is the insert
#: payload or the range's upper bound, ``None`` otherwise.
LOOKUP, INSERT, DELETE, RANGE, MIN, MAX = range(6)
KINDS = ("lookup", "insert", "delete", "range", "minmax", "minmax")
Op = tuple[int, float, object]

#: Zipf-over-rank exponent of every probe stream.  Hot keys are what
#: coalescing and caches feed on, but at 1.1 a single key draws 13% of
#: the probes and the depth of *its* leaf moves ``dht_lookups_per_op`` by
#: 15% from seed to seed; at 0.8 the hottest key draws 1.6% and the
#: spread is 2%.
ZIPF_SKEW = 0.8
MIX = (0.4, 0.35, 0.25)  # lookup / insert / delete
RANGE_SPANS = (0.0005, 0.002, 0.01)
SERVE_MIX = {"lookup": 0.90, "insert": 0.05, "remove": 0.03, "range": 0.02}
SERVE_RANGE_SPAN = 0.002
SERVE_SESSIONS = 8
#: How many stored keys the insert window of a mixed workload covers,
#: per insert: < 1 so that its leaves overflow and split repeatedly.
INSERT_WINDOW_KEYS_PER_INSERT = 2 / 3
#: Victims leave in sorted-key order jittered by this many ranks: a
#: window sliding along the key space, emptying the leaves it passes.
DELETE_WINDOW_RANKS = 256


@dataclass(frozen=True, slots=True)
class Spec:
    """Static shape of one workload (``why`` is BENCHMARK.json's line)."""

    name: str
    family: str
    stack: str
    log2_keys: int
    n_ops: int
    trace_ops: int
    why: str
    #: The timed phase must see at least this many splits and as many
    #: merges at full size (scaled down with the workload), or it is not
    #: timing what the workload exists for.
    min_splits_and_merges: int = 0
    #: Every operation must cost the Alg. 2 probes it costs on bare
    #: ``local`` (the "any DHT" claim).
    probes_as_on_local: bool = False


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "point-local", "point", "local", 18, 60_000, 20_000,
            "Zipf exact_match on bare local: core.lookup + dht.kernel do all "
            "the work, routing/wrappers/serve none - the control every other "
            "workload is read against",
        ),
        Spec(
            "mixed-local", "mixed", "local", 18, 60_000, 20_000,
            "40/35/25 lookup/insert/delete on bare local with windowed "
            "writes: Alg. 1 splits and merges run in the timed phase, so a "
            "lookup gain bought with a dearer mutation path shows",
            min_splits_and_merges=100,
        ),
        Spec(
            "range-local", "range", "local", 18, 1_000, 1_000,
            "range_query (spans .0005/.002/.01) + min/max on bare local: "
            "the paper's headline op; time goes to frontier rounds, "
            "multi_get and bucket slicing, not to Alg. 2",
        ),
        Spec(
            "point-kademlia", "point", "kademlia", 18, 2_500, 2_000,
            "prefix of point-local's probes over kademlia: substrate "
            "routing dominates; index-level DHT-lookups must equal "
            "point-local's, so only dht.kademlia.route differs",
            probes_as_on_local=True,
        ),
        Spec(
            "mixed-deploy", "mixed", "deploy", 16, 2_500, 1_500,
            "the mixed ops through Resilient(Replicated3(Faulty 2%("
            "Serializing(local)))): the wrappers do ~90% of the work; "
            "retries, failovers and replica probes occur yet nothing fails",
        ),
        Spec(
            "serve-async", "serve", "serve", 16, 40_000, 20_000,
            "90/5/3/2 lookup/insert/remove/range requests from 8 closed-loop "
            "coroutine sessions through AsyncFrontend on local: admission, "
            "batching and coalescing cost more than the index work",
        ),
    )
}


@dataclass(frozen=True, slots=True)
class Workload:
    """Generated inputs: what gets bulk-loaded and what gets asked."""

    spec: Spec
    seed: int
    scale: int
    keys: list[float]
    ops: list[Op]
    trace_ops: int


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, f"bench:{stream}"))


def _point_ops(keys: np.ndarray, n_ops: int, seed: int) -> list[Op]:
    probes = zipf_rank_choice(keys, ZIPF_SKEW, n_ops, _rng(seed, "point"))
    return [(LOOKUP, key, None) for key in probes.tolist()]


def _mixed_ops(keys: np.ndarray, n_ops: int, seed: int) -> list[Op]:
    rng = _rng(seed, "mixed")
    kinds = rng.choice(3, size=n_ops, p=MIX)
    probes = zipf_rank_choice(keys, ZIPF_SKEW, n_ops, rng).tolist()
    n_inserts = int(np.count_nonzero(kinds == INSERT))
    n_deletes = int(np.count_nonzero(kinds == DELETE))

    ranked = np.sort(keys)
    first = int(rng.integers(0, len(keys) - n_deletes))
    order = np.argsort(
        np.arange(n_deletes) + rng.uniform(0, DELETE_WINDOW_RANKS, n_deletes)
    )
    victims = iter(ranked[first : first + n_deletes][order].tolist())

    # The insert window sits half the key space away from the victims,
    # so splits and merges never undo each other.
    width = n_inserts * INSERT_WINDOW_KEYS_PER_INSERT / len(keys)
    low = min((float(ranked[first]) + 0.5) % 1.0, 1.0 - width)
    fresh = iter((low + width * rng.random(n_inserts)).tolist())

    ops: list[Op] = []
    for i, kind in enumerate(kinds.tolist()):
        if kind == LOOKUP:
            ops.append((LOOKUP, probes[i], None))
        elif kind == INSERT:
            ops.append((INSERT, next(fresh), i))
        else:
            ops.append((DELETE, next(victims), None))
    return ops


def _range_ops(n_ops: int, seed: int) -> list[Op]:
    lows = _rng(seed, "range").random(n_ops).tolist()
    ops: list[Op] = []
    n_ranges = 0
    for i in range(n_ops):
        if i % 10 == 8:
            ops.append((MIN, 0.0, None))
        elif i % 10 == 9:
            ops.append((MAX, 0.0, None))
        else:
            span = RANGE_SPANS[n_ranges % len(RANGE_SPANS)]
            n_ranges += 1
            lo = lows[i] * (1.0 - span)
            ops.append((RANGE, lo, lo + span))
    return ops


_SERVE_KINDS = {
    RequestKind.LOOKUP: LOOKUP,
    RequestKind.INSERT: INSERT,
    RequestKind.REMOVE: DELETE,
    RequestKind.RANGE: RANGE,
}


def _serve_ops(keys: np.ndarray, n_ops: int, seed: int) -> list[Op]:
    config = WorkloadConfig(
        n_requests=n_ops,
        skew=ZIPF_SKEW,
        mix=SERVE_MIX,
        range_span=SERVE_RANGE_SPAN,
        n_sessions=SERVE_SESSIONS,
    )
    arrivals = generate_workload(keys, config, derive_seed(seed, "bench:serve"))
    ops: list[Op] = []
    for arrival in arrivals:
        request = arrival.request
        y = request.hi if request.kind is RequestKind.RANGE else request.value
        ops.append((_SERVE_KINDS[request.kind], request.key, y))
    return ops


def generate(name: str, seed: int, scale: int = 1) -> Workload:
    """The inputs of workload ``name`` under ``seed`` at 1/``scale`` size.

    All workloads store a prefix of one seeded uniform key stream, and
    ``point-kademlia`` asks a prefix of ``point-local``'s probes — the
    shared prefix the cross-substrate count check needs.
    """
    spec = SPECS[name]
    n_keys = (1 << spec.log2_keys) // scale
    n_ops = spec.n_ops // scale
    keys = _rng(seed, "keys").random(1 << 18)[:n_keys]
    if spec.family == "point":
        longest = max(s.n_ops for s in SPECS.values() if s.family == "point")
        ops = _point_ops(keys, longest // scale, seed)[:n_ops]
    elif spec.family == "mixed":
        ops = _mixed_ops(keys, n_ops, seed)
    elif spec.family == "range":
        ops = _range_ops(n_ops, seed)
    else:
        ops = _serve_ops(keys, n_ops, seed)
    return Workload(
        spec=spec,
        seed=seed,
        scale=scale,
        keys=keys.tolist(),
        ops=ops,
        trace_ops=min(n_ops, spec.trace_ops // scale),
    )
