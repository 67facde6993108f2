"""E1/E2 — average split fraction ᾱ (paper Fig. 6, §9.2).

The paper inserts progressively larger datasets into LHT and reports the
average α — the remote bucket's share of ``θ_split`` storage slots at
each split — cumulated over the whole tree growth.  For uniform data the
measured curve should match the closed form ``ᾱ = 1/2 + 1/(2θ)`` (the
label slot's overhead); gaussian data deviates at small sizes and
converges with scale.

* **E1 (Fig. 6a)** — ᾱ vs. data size, for ``θ ∈ {40, 160}``;
* **E2 (Fig. 6b)** — ᾱ vs. ``θ_split`` at a fixed data size.
"""

from __future__ import annotations

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht.local import LocalDHT
from repro.experiments.common import (
    ExperimentResult,
    Series,
    count_build_time,
    scale_params,
    summarize,
    sweep,
    trial_rng,
)
from repro.experiments.stats import powers_of_two
from repro.workloads.datasets import make_keys

__all__ = ["run", "run_fig6a", "run_fig6b", "expected_alpha"]

_SCALES = {
    "ci": {"exps": (8, 13), "trials": 3, "fixed_size_exp": 12},
    "paper": {"exps": (8, 17), "trials": 10, "fixed_size_exp": 16},
}

_DISTRIBUTIONS = ("uniform", "gaussian")


def expected_alpha(theta_split: int) -> float:
    """The paper's closed form ``ᾱ = 1/2 + 1/(2θ)`` (§9.2)."""
    return 0.5 + 1.0 / (2.0 * theta_split)


def _empty_index(theta_split: int, trial: int) -> LHTIndex:
    return LHTIndex(
        LocalDHT(n_peers=64, seed=trial),
        IndexConfig(theta_split=theta_split, max_depth=24),
    )


def _alpha_growth_curve(
    distribution: str,
    theta_split: int,
    checkpoints: list[int],
    trials: int,
    seed: int,
) -> Series:
    """Mean cumulative ᾱ at each size checkpoint, averaged over trials."""
    label = f"{distribution}/θ={theta_split}"
    per_trial: list[list[dict[str, float]]] = []
    for trial in range(trials):
        rng = trial_rng(seed, f"fig6a:{distribution}:{theta_split}", trial)
        keys = make_keys(distribution, checkpoints[-1], rng)
        index = _empty_index(theta_split, trial)
        start = 0
        row = []
        for size in checkpoints:
            # ᾱ comes from the split ledger, so the build must stay on
            # the incremental path (the fast path never splits).
            with count_build_time():
                index.bulk_load(float(k) for k in keys[start:size])
            start = size
            row.append({label: index.ledger.average_alpha})
        per_trial.append(row)
    return summarize(checkpoints, zip(*per_trial))[label]


def _alpha_at_size(
    distribution: str, size: int, thetas: list[int], trials: int, seed: int
) -> Series:
    """Mean ᾱ of a full build of ``size`` keys, per ``θ_split``."""

    def measure(theta, trial, rng):
        keys = make_keys(distribution, size, rng)
        index = _empty_index(theta, trial)
        with count_build_time():
            index.bulk_load(float(k) for k in keys)
        return {distribution: index.ledger.average_alpha}

    return sweep(
        seed,
        lambda theta: f"fig6b:{distribution}:{theta}",
        thetas,
        trials,
        measure,
    )[distribution]


def run_fig6a(scale: str = "ci", seed: int = 0) -> ExperimentResult:
    """E1: average ᾱ vs data size for θ ∈ {40, 160} (Fig. 6a)."""
    params = scale_params(_SCALES, scale)
    checkpoints = powers_of_two(*params["exps"])
    series: list[Series] = []
    for theta in (40, 160):
        for distribution in _DISTRIBUTIONS:
            series.append(
                _alpha_growth_curve(
                    distribution, theta, checkpoints, params["trials"], seed
                )
            )
        series.append(
            Series(
                label=f"expected/θ={theta}",
                x=[float(c) for c in checkpoints],
                y=[expected_alpha(theta)] * len(checkpoints),
            )
        )
    return ExperimentResult(
        experiment_id="E1",
        title="Average split fraction alpha vs data size (Fig. 6a)",
        x_label="data size",
        y_label="average alpha",
        params={"scale": scale, "seed": seed, **params},
        series=series,
        notes="expected curve is the paper's 1/2 + 1/(2*theta)",
    )


def run_fig6b(scale: str = "ci", seed: int = 0) -> ExperimentResult:
    """E2: average ᾱ vs θ_split at a fixed data size (Fig. 6b)."""
    params = scale_params(_SCALES, scale)
    size = 1 << params["fixed_size_exp"]
    thetas = [20, 40, 60, 100, 160, 240, 320]
    series = [
        _alpha_at_size(distribution, size, thetas, params["trials"], seed)
        for distribution in _DISTRIBUTIONS
    ]
    series.append(
        Series(
            label="expected",
            x=[float(t) for t in thetas],
            y=[expected_alpha(t) for t in thetas],
        )
    )
    return ExperimentResult(
        experiment_id="E2",
        title="Average split fraction alpha vs theta_split (Fig. 6b)",
        x_label="theta_split",
        y_label="average alpha",
        params={"scale": scale, "seed": seed, "size": size},
        series=series,
        notes="expected curve is the paper's 1/2 + 1/(2*theta)",
    )


def run(scale: str = "ci", seed: int = 0) -> list[ExperimentResult]:
    """Run both Fig. 6 panels."""
    return [run_fig6a(scale, seed), run_fig6b(scale, seed)]
