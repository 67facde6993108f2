"""``--compare A.json B.json``: did B get worse than A, metric by metric.

One row per workload x end-to-end metric: both values with the
quartiles of their per-repeat samples (a time's value is taken per
operation across repeats, see ``measure.py``, and so usually lies at or
below the quartiles of whole repeats), the change, the bound
``BENCHMARK.json`` fixes, and a verdict — ``worse`` when B's median is
beyond the bound on the wrong side, ``unresolved`` when either side's
quartiles lie further apart than the bound (so the medians cannot
settle it), else ``ok``.  Counts come from the program's own counters
and must repeat exactly under one seed: any move the wrong way is
``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

from bench.measure import END_TO_END

__all__ = ["compare", "verdict"]


def _quartiles(samples: list[float]) -> tuple[float, float] | None:
    if len(samples) < 2:
        return None  # one value per run: nothing to take quartiles of
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def _spread(metric: dict[str, Any]) -> float:
    quartiles = _quartiles(metric["samples"])
    if quartiles is None or not metric["value"]:
        return 0.0
    return (quartiles[1] - quartiles[0]) / abs(metric["value"])


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> tuple[float, str]:
    """(B's change as a share of A's median, positive = worse; verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if a["unit"] == "count":
        return change, "worse" if change > 0 else "ok"
    if max(_spread(a), _spread(b)) > bound:
        return change, "unresolved"
    return change, "worse" if change > bound else "ok"


def _cell(metric: dict[str, Any]) -> str:
    quartiles = _quartiles(metric["samples"])
    spread = f"[{quartiles[0]:.4g}, {quartiles[1]:.4g}]" if quartiles else "-"
    return f"{metric['value']:>12.5g} {spread:<22}"


def compare(path_a: str, path_b: str) -> int:
    """Print the table; exit code 1 if any row is not ``ok``."""
    with open(path_a) as fa, open(path_b) as fb:
        set_a, set_b = json.load(fa), json.load(fb)
    print(f"A = {path_a}  {set_a['header']}")
    print(f"B = {path_b}  {set_b['header']}")
    print(
        f"{'workload':<15} {'metric':<19} {'A value [q1, q3 of repeats]':<35} "
        f"{'B value [q1, q3 of repeats]':<35} {'worse by':>9} {'bound':>6}  verdict"
    )
    not_ok = 0
    for workload, run_a in set_a["runs"].items():
        run_b = set_b["runs"].get(workload)
        if run_b is None:
            print(f"{workload:<15} missing from B")
            not_ok += 1
            continue
        for name, _, better, bound in END_TO_END:
            a = run_a["end_to_end"]["metrics"][name]
            b = run_b["end_to_end"]["metrics"][name]
            change, word = verdict(a, b, better, bound)
            not_ok += word != "ok"
            exact = a["unit"] == "count"
            print(
                f"{workload:<15} {name:<19} {_cell(a)} {_cell(b)} "
                f"{change:>+8.1%} {'exact' if exact else format(bound, '.0%'):>6}  {word}"
            )
    return 1 if not_ok else 0
