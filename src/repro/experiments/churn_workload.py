"""E20 — maintenance under a churn-flavoured mixed workload (extension).

Figs. 6-7 measure pure insertion; the paper's *motivation* is continuous
insertion **and deletion** driven by peer dynamism (§1).  This extension
replays identical mixed traces (insert/delete/lookup/range) against LHT
and PHT and compares the total maintenance traffic, including LHT's
merge operations — the regime the paper argues matters most.

PHT has no published merge, so its trees only grow; LHT with merging
additionally reclaims structure.  Both effects appear in the table.
"""

from __future__ import annotations

from repro.baselines.pht import PHTIndex
from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht.local import LocalDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    scale_params,
    sweep,
)
from repro.workloads.trace import generate_trace, replay

__all__ = ["run"]

_SCALES = {
    "ci": {"n_ops": 4_000, "trials": 3},
    "paper": {"n_ops": 40_000, "trials": 5},
}

_THETA = 50
_METRICS = ("maintenance_lookups", "maintenance_records_moved")


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Replay mixed traces against both schemes; report maintenance."""
    params = scale_params(_SCALES, scale)

    def measure(_, trial, rng):
        trace = generate_trace(params["n_ops"], rng)
        lht = LHTIndex(
            LocalDHT(64, trial),
            IndexConfig(theta_split=_THETA, max_depth=24, merge_enabled=True),
        )
        pht = PHTIndex(
            LocalDHT(64, trial), IndexConfig(theta_split=_THETA, max_depth=24)
        )
        measured = {}
        for scheme, index in (("lht", lht), ("pht", pht)):
            totals = replay(index, trace)
            for metric in _METRICS:
                measured[f"{scheme}:{metric}"] = totals[metric]
        return measured

    # One sweep point: the x axis of the published table is the metric.
    cost = sweep(
        seed, lambda _: "churn-workload", [0], params["trials"], measure
    )
    xs = [0.0, 1.0]  # [maintenance_lookups, records_moved]
    series = [
        Series(
            scheme,
            xs,
            [cost[f"{scheme}:{m}"].y[0] for m in _METRICS],
            [cost[f"{scheme}:{m}"].y_err[0] for m in _METRICS],
        )
        for scheme in ("lht", "pht")
    ]
    lht_l = cost["lht:maintenance_lookups"].y[0]
    pht_l = cost["pht:maintenance_lookups"].y[0]
    return [
        ExperimentResult(
            experiment_id="E20",
            title="Maintenance under a mixed insert/delete workload",
            x_label="metric index [(0, maintenance_lookups), (1, records_moved)]",
            y_label="cumulative maintenance cost",
            params={"scale": scale, "seed": seed, "theta_split": _THETA, **params},
            series=series,
            notes=(
                f"LHT/PHT maintenance-lookup ratio: {lht_l / pht_l:.2f} "
                "(LHT merges are included; PHT has no published merge)"
            ),
        )
    ]
