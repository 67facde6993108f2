"""Byte-identity proof for the peer-store kernel refactor.

The kernel refactor (``repro.dht.kernel``) re-homed storage, caches, and
metrics charging out of the six substrates — but the paper's numbers must
not move: same DHT-lookup counts, same physical hop counts, same
experiment output for every seed.  This suite pins that contract with
golden files captured from the *pre-refactor* tree: for a pinned seed
matrix (two experiment workloads × all six substrates × two seeds), the
``ExperimentResult.to_json()`` of a fresh run must be
byte-identical to the checked-in goldens.

Regenerate (only when a change is *meant* to alter counts)::

    PYTHONPATH=src python tests/test_kernel_equivalence.py --write

which rewrites ``tests/data/equivalence/*.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht.registry import make as make_dht
from repro.experiments.common import ExperimentResult, Series, trial_rng

GOLDEN_DIR = Path(__file__).parent / "data" / "equivalence"

# The goldens were captured from the pre-kernel tree, which had exactly
# these six substrates — the matrix stays pinned to them even as the
# registry grows (OneHop/Koorde post-date the refactor; their index-level
# cost invariance is enforced per phase by experiment E25 instead).
GOLDEN_SUBSTRATES = ("can", "chord", "kademlia", "local", "pastry", "tapestry")

SEEDS = (0, 1)

_N_PEERS = 32
_N_KEYS = 300
_N_PROBES = 40
_N_RANGES = 8
_THETA = 16


def _build(substrate: str, seed: int) -> tuple[LHTIndex, list[float]]:
    rng = trial_rng(seed, f"equiv:{substrate}", 0)
    dht = make_dht(substrate, _N_PEERS, seed)
    index = LHTIndex(dht, IndexConfig(theta_split=_THETA, max_depth=20))
    keys = [float(k) for k in rng.random(_N_KEYS)]
    for key in keys:
        index.insert(key)
    return index, keys


def run_lookup(seed: int) -> ExperimentResult:
    """EQ-A: per-probe lookup cost and total hops, per substrate."""
    cost_series: list[Series] = []
    hop_series: list[Series] = []
    for substrate in GOLDEN_SUBSTRATES:
        index, keys = _build(substrate, seed)
        rng = trial_rng(seed, f"equiv-probes:{substrate}", 0)
        probes = [keys[int(i)] for i in rng.integers(0, len(keys), _N_PROBES)]
        before = index.dht.metrics.snapshot()
        costs = [float(index.lookup(p).dht_lookups) for p in probes]
        spent = index.dht.metrics.since(before)
        cost_series.append(
            Series(substrate, [float(i) for i in range(len(costs))], costs)
        )
        hop_series.append(
            Series(
                f"{substrate}:hops",
                [0.0],
                [float(spent.hops)],
            )
        )
    return ExperimentResult(
        experiment_id=f"EQA-s{seed}",
        title="kernel equivalence: lookup costs and hops",
        x_label="probe",
        y_label="DHT-lookups",
        params={"seed": seed, "n_peers": _N_PEERS, "n_keys": _N_KEYS},
        series=cost_series + hop_series,
    )


def run_range(seed: int) -> ExperimentResult:
    """EQ-B: range/min/max costs and total hops, per substrate."""
    cost_series: list[Series] = []
    hop_series: list[Series] = []
    for substrate in GOLDEN_SUBSTRATES:
        index, _ = _build(substrate, seed)
        rng = trial_rng(seed, f"equiv-ranges:{substrate}", 0)
        before = index.dht.metrics.snapshot()
        costs: list[float] = []
        for _ in range(_N_RANGES):
            lo = float(rng.uniform(0.0, 0.9))
            hi = float(min(1.0, lo + rng.uniform(0.01, 0.3)))
            costs.append(float(index.range_query(lo, hi).dht_lookups))
        costs.append(float(index.min_query().dht_lookups))
        costs.append(float(index.max_query().dht_lookups))
        spent = index.dht.metrics.since(before)
        cost_series.append(
            Series(substrate, [float(i) for i in range(len(costs))], costs)
        )
        hop_series.append(Series(f"{substrate}:hops", [0.0], [float(spent.hops)]))
    return ExperimentResult(
        experiment_id=f"EQB-s{seed}",
        title="kernel equivalence: range/min/max costs and hops",
        x_label="query",
        y_label="DHT-lookups",
        params={"seed": seed, "n_peers": _N_PEERS, "n_keys": _N_KEYS},
        series=cost_series + hop_series,
    )


_RUNNERS = {"eqa": run_lookup, "eqb": run_range}


def _golden_path(name: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{name}_seed{seed}.json"


def _canonical_bytes(result: ExperimentResult) -> str:
    return json.dumps(result.to_json(), sort_keys=True, indent=2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(_RUNNERS))
def test_canonical_json_matches_pre_refactor_golden(name: str, seed: int):
    golden = _golden_path(name, seed)
    assert golden.exists(), (
        f"golden {golden} missing — generate with "
        "`PYTHONPATH=src python tests/test_kernel_equivalence.py --write`"
    )
    current = _canonical_bytes(_RUNNERS[name](seed))
    assert current == golden.read_text(), (
        f"{name} seed={seed}: result JSON drifted from the pinned "
        "pre-refactor golden (DHT-lookup or hop counts changed)"
    )


def _write_goldens() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, runner in sorted(_RUNNERS.items()):
        for seed in SEEDS:
            path = _golden_path(name, seed)
            path.write_text(_canonical_bytes(runner(seed)))
            print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write_goldens()
    else:
        print(__doc__)
