"""E23 — leaf-cache benefit under skewed exact-match workloads (extension).

Alg. 2 charges ``≈ log2(D/2)`` routed gets on *every* exact match (≈ 3.3
at the paper's D = 20), independent of how often a key repeats.  Real
query streams are skewed; the :mod:`repro.cache` layer exploits that by
remembering leaf labels and validating them with one get.  This
experiment sweeps workload skew (Zipf-over-rank probe distribution) and
reports the amortized routed-get cost per exact match for three arms:

* **cache off** — the paper's baseline; flat ≈ ``log2(D/2)``;
* **cache on (small)** — capacity far below the leaf count, so the hit
  rate is carried by skew alone (the honest "does skew help?" arm);
* **cache on (ample)** — capacity above the leaf count: the asymptote,
  ≈ 1 get per probe once warm, skew-independent.

A companion result (E23b) reports the small cache's hit/miss/stale split
from the new ``cache_*`` metrics counters — staleness stays at zero here
because the workload is read-only after the build; the mutation cases
are covered by the equivalence machine and fault matrix in the test
suite, not by this figure.

Every probe targets a stored key and is asserted PRESENT: the cache is
required to preserve answers exactly, so this experiment measures *cost
only* on top of a correctness check, not instead of one.
"""

from __future__ import annotations

from repro.core.config import IndexConfig
from repro.dht.local import LocalDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    build_index,
    scale_params,
    trial_rng,
    zipf_probe_cost,
)
from repro.sim.rng import derive_seed
from repro.workloads.datasets import make_keys

__all__ = ["run"]

_SCALES = {
    "ci": {"n_peers": 16, "size": 1 << 12, "probes": 400, "small_capacity": 8},
    "paper": {
        "n_peers": 64,
        "size": 1 << 13,
        "probes": 5000,
        "small_capacity": 24,
    },
}

#: Zipf-over-rank exponents; 0.0 is the uniform (skew-free) endpoint.
_SKEWS = [0.0, 0.5, 0.8, 1.0, 1.2, 1.5]
_THETA = 100
_DEPTH = 20
_AMPLE_CAPACITY = 4096


def _arm(
    capacity: int | None,
    skew: float,
    params: dict,
    seed: int,
) -> tuple[float, dict[str, float]]:
    """One (cache config, skew) cell → (gets/probe, cache counter rates)."""
    rng = trial_rng(seed, f"cached:{capacity}:{skew}", 0)
    dht = LocalDHT(
        n_peers=params["n_peers"],
        seed=derive_seed(seed, f"sub:{capacity}:{skew}"),
    )
    config = IndexConfig(
        theta_split=_THETA,
        max_depth=_DEPTH,
        cache_capacity=capacity,
    )
    keys = make_keys("uniform", params["size"], rng)
    index = build_index("lht", dht, config, keys)
    if index.cache is not None:
        # Measure steady-state reads, not build-time residue.
        index.cache.clear()

    gets, spent = zipf_probe_cost(index, keys, skew, params["probes"], rng)
    n = params["probes"]
    rates = {
        "hit": spent.cache_hits / n,
        "miss": spent.cache_misses / n,
        "stale": spent.cache_stale / n,
    }
    return gets, rates


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Amortized exact-match cost vs workload skew, cache off/small/ample."""
    params = scale_params(_SCALES, scale)

    small = params["small_capacity"]
    arms: dict[str, int | None] = {
        "cache off": None,
        f"cache on (capacity {small})": small,
        f"cache on (capacity {_AMPLE_CAPACITY})": _AMPLE_CAPACITY,
    }
    cells = {
        label: [_arm(capacity, skew, params, seed) for skew in _SKEWS]
        for label, capacity in arms.items()
    }
    small_rates = [rates for _, rates in cells[f"cache on (capacity {small})"]]

    xs = list(_SKEWS)
    shared = {
        "scale": scale,
        "seed": seed,
        "theta_split": _THETA,
        "max_depth": _DEPTH,
        **params,
    }
    return [
        ExperimentResult(
            experiment_id="E23",
            title="Exact-match cost vs workload skew with leaf caching (extension)",
            x_label="zipf exponent",
            y_label="routed DHT-gets per exact match",
            params={**shared, "ample_capacity": _AMPLE_CAPACITY},
            series=[
                Series(label, xs, [gets for gets, _ in arm])
                for label, arm in cells.items()
            ],
            notes=(
                "probes target stored keys and assert PRESENT; uncached "
                "baseline ~ log2(D/2); ample-capacity arm ~ 1 get once warm"
            ),
        ),
        ExperimentResult(
            experiment_id="E23b",
            title="Small-cache hit/miss/stale rates vs skew (extension)",
            x_label="zipf exponent",
            y_label="fraction of probes",
            params={**shared, "capacity": small},
            series=[
                Series(name, xs, [rates[name] for rates in small_rates])
                for name in ("hit", "miss", "stale")
            ],
            notes="read-only after build, so stale stays 0 by construction",
        ),
    ]
