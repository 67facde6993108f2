"""Experiment CLI: run any subset of the paper's figures and extensions.

Usage (installed as ``lht-experiments``)::

    lht-experiments --list
    lht-experiments fig6 fig7 --scale ci --out results/
    lht-experiments all --scale paper --seed 1 --jobs 4

Each experiment prints a text table mirroring the paper's plot and, with
``--out``, writes machine-readable JSON per experiment ID.

An experiment's scales are the keys of its module's ``_SCALES`` table
(``--list`` shows them).  A scale one of the named experiments does not
define and ``--jobs < 1`` are refused before anything runs, and a second
result with an id already emitted in the run before it can overwrite the
first one's file — each with one ``error:`` line and exit status 2.

``--jobs N`` fans the experiment *cells* (one per experiment name) out
across ``N`` worker processes.  This is safe because every cell derives
all of its randomness from ``(root seed, experiment name, trial)`` via
``repro.sim.rng.derive_seed`` — process placement cannot leak into any
number — and the parent merges results in submission order, so the
output is byte-identical to ``--jobs 1``.  A result is a pure function
of (experiment, scale, seed): nothing here reads a clock.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from typing import Callable

from repro.experiments import (
    ablation_lookup,
    availability,
    cached_lookup,
    churn_study,
    churn_workload,
    eq3_saving,
    fig6_alpha,
    fig7_maintenance,
    fig8_lookup,
    hotspots,
    latency_study,
    load_balance,
    minmax_cost,
    range_perf,
    routing_diversity,
)
from repro.experiments.common import ExperimentResult
from repro.errors import ConfigurationError

__all__ = ["main", "EXPERIMENTS", "run_experiments"]

#: name -> (description, runner)
EXPERIMENTS: dict[str, tuple[str, Callable[[str, int], list[ExperimentResult]]]] = {
    "fig6": ("E1/E2: average alpha (Fig. 6a-b)", fig6_alpha.run),
    "fig7": ("E3/E4: maintenance cost (Fig. 7a-b)", fig7_maintenance.run),
    "fig8": ("E5/E6: lookup performance (Fig. 8a-b)", fig8_lookup.run),
    "range": ("E7-E10: range query perf (Figs. 9-10)", range_perf.run),
    "eq3": ("E11: saving ratio vs gamma (Eq. 3)", eq3_saving.run),
    "minmax": ("E12: min/max query cost (Thm. 3)", minmax_cost.run),
    "churn": ("E14: availability under churn", churn_study.run),
    "balance": ("E15: storage load balance", load_balance.run),
    "ablation": ("E16: lookup ablation (collapse vs search)", ablation_lookup.run),
    "latency": ("E19: simulated wall latency", latency_study.run),
    "workload": ("E20: maintenance under mixed workload", churn_workload.run),
    "hotspots": ("E21: query-traffic hot spots", hotspots.run),
    "availability": (
        "E22/E26: availability vs retry budget and replication factor",
        availability.run,
    ),
    "cached": ("E23: leaf-cache benefit vs workload skew", cached_lookup.run),
    "routing-diversity": (
        "E25: hops per DHT-lookup across all registered substrates",
        routing_diversity.run,
    ),
}


def _run_cell(cell: tuple[str, str, int]) -> tuple[str, list[ExperimentResult]]:
    """Run one experiment cell — the worker-process entry point.

    Each cell is hermetic: its randomness comes entirely from
    ``derive_seed(seed, "<experiment>:<trial>")`` inside the experiment
    module, so the same cell computes the same results in any process.
    """
    name, scale, seed = cell
    return name, EXPERIMENTS[name][1](scale, seed)


def defined_scales(name: str) -> list[str]:
    """The scales experiment ``name`` defines: its module's ``_SCALES`` keys."""
    return list(sys.modules[EXPERIMENTS[name][1].__module__]._SCALES)


def _emit(
    name: str,
    batch: list[ExperimentResult],
    out: str | None,
    results: list[ExperimentResult],
) -> None:
    """Print (and with ``out`` save) one cell's batch; append to ``results``."""
    for result in batch:
        # Results are saved under their id: a repeat would overwrite.
        if any(result.experiment_id == r.experiment_id for r in results):
            raise ConfigurationError(
                f"{name}: a second result with id {result.experiment_id!r} "
                "in one run"
            )
        results.append(result)
        print(result.to_table())
        if out is not None:
            print(f"  saved: {result.save(out)}")
        print(flush=True)


def run_experiments(
    names: list[str],
    scale: str = "ci",
    seed: int = 0,
    out: str | None = None,
    jobs: int = 1,
) -> list[ExperimentResult]:
    """Run the named experiments and return all results.

    With ``jobs > 1`` the cells execute in a ``spawn`` process pool and
    the parent prints/saves them in submission order as each becomes
    available, so stdout and the saved JSON match a serial run exactly.
    Raises :class:`ConfigurationError`, before any cell runs, for
    ``jobs < 1`` or a scale one of the experiments does not define.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1: {jobs}")
    for name in names:
        scales = defined_scales(name)
        if scale not in scales:
            raise ConfigurationError(
                f"experiment {name!r} defines no scale {scale!r} "
                f"(defined: {', '.join(scales)})"
            )
    cells = [(name, scale, seed) for name in names]
    results: list[ExperimentResult] = []

    def announce(name: str) -> None:
        print(f"== {name}: {EXPERIMENTS[name][0]} (scale={scale})", flush=True)

    if jobs == 1:
        for cell in cells:
            announce(cell[0])
            _emit(*_run_cell(cell), out, results)
        return results
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=min(jobs, len(cells))) as pool:
        for name, batch in pool.imap(_run_cell, cells):
            announce(name)
            _emit(name, batch, out, results)
    return results


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lht-experiments",
        description="Regenerate the LHT paper's figures and extensions.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (see --list), or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "ci", "paper"),
        default="ci",
        help="parameter scale: 'ci' is fast, 'paper' uses paper-sized "
        "sweeps; 'smoke' is the minimal CI leg (--list shows which "
        "scales each experiment defines)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--out", default=None, help="directory for per-experiment JSON output"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run experiment cells in N parallel processes; results merge "
        "in submission order, byte-identical to --jobs 1",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name, (description, _) in EXPERIMENTS.items():
            scales = ", ".join(defined_scales(name))
            print(f"{name:12s} {description} [scales: {scales}]")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    run_experiments(
        names, scale=args.scale, seed=args.seed, out=args.out, jobs=args.jobs
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
