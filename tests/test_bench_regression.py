"""Tier-2 benchmark regression gate (``-m bench``) + gate-logic units.

The ``bench``-marked tests re-measure the count-based workload of
:mod:`repro.devtools.benchgate` and fail when any metric regresses more
than 10% over its checked-in baseline (``BENCH_lookup.json`` /
``BENCH_range.json`` / ``BENCH_build.json`` / ``BENCH_serve.json``).
They are excluded from the default (tier-1) run
by the ``-m "not bench"`` addopts and executed by the CI smoke step::

    PYTHONPATH=src python -m pytest tests/test_bench_regression.py -m bench

The unmarked tests pin the comparison logic itself and always run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import benchgate

_ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path) -> dict:
    assert path.exists(), f"{path.name} missing — run benchgate --write"
    return json.loads(path.read_text())


@pytest.mark.bench
class TestBenchGate:
    def test_lookup_counts_within_tolerance(self):
        current = benchgate.measure_lookup()
        baseline = _load(_ROOT / "BENCH_lookup.json")
        assert current["params"] == baseline["params"], (
            "workload parameters changed — refresh baselines with "
            "python -m repro.devtools.benchgate --write"
        )
        violations = benchgate.compare(
            current["metrics"], baseline["metrics"]
        )
        assert not violations, "\n".join(violations)

    def test_range_counts_within_tolerance(self):
        current = benchgate.measure_range()
        baseline = _load(_ROOT / "BENCH_range.json")
        assert current["params"] == baseline["params"]
        violations = benchgate.compare(
            current["metrics"], baseline["metrics"]
        )
        assert not violations, "\n".join(violations)

    def test_cache_meets_the_advertised_amortized_cost(self):
        """The PR's headline numbers, pinned: an ample warm cache answers
        in ≤ 1.5 amortized gets; the uncached baseline pays the full
        Alg. 2 search (> 2 gets at this depth)."""
        metrics = benchgate.measure_lookup()["metrics"]
        assert metrics["cached_ample_gets_per_probe"] <= 1.5
        assert metrics["uncached_gets_per_probe"] > 2.0
        assert (
            metrics["cached_small_gets_per_probe"]
            < metrics["uncached_gets_per_probe"]
        )

    def test_build_counts_within_tolerance(self):
        current = benchgate.measure_build()
        baseline = _load(_ROOT / "BENCH_build.json")
        assert current["params"] == baseline["params"], (
            "workload parameters changed — refresh baselines with "
            "python -m repro.devtools.benchgate --write"
        )
        violations = benchgate.compare(
            current["metrics"], baseline["metrics"]
        )
        assert not violations, "\n".join(violations)

    def test_fast_build_moves_nothing_and_puts_once_per_leaf(self):
        """The tentpole claim, pinned: the sorted fast path ships each
        final leaf with exactly one put (measure_build raises if the
        put count diverges from the leaf count) and never moves a
        record, while the incremental replay pays Theorem 2's ~0.75
        moves per key at θ=100."""
        metrics = benchgate.measure_build()["metrics"]
        assert metrics["fast_moved_per_key"] == 0.0
        assert metrics["incremental_moved_per_key"] > 0.5

    def test_serve_counts_within_tolerance(self):
        current = benchgate.measure_serve()
        baseline = _load(_ROOT / "BENCH_serve.json")
        assert current["params"] == baseline["params"], (
            "serving workload parameters changed — refresh baselines with "
            "python -m repro.devtools.benchgate --write"
        )
        violations = benchgate.compare(
            current["metrics"], baseline["metrics"]
        )
        assert not violations, "\n".join(violations)

    def test_serve_coalescing_strictly_saves(self):
        """The serving tentpole's headline, pinned: at concurrency ≥ 8
        the served run issues strictly fewer routed gets than the serial
        replay of its executed order on a twin index (measure_serve
        raises if not, or if any replayed answer differs), and the
        saving the engine's batches counted is exactly the difference
        between those two independently measured totals."""
        current = benchgate.measure_serve()
        metrics, info = current["metrics"], current["info"]
        assert (
            metrics["coalesced_routed_gets"]
            < metrics["uncoalesced_routed_gets"]
        )
        assert info["gets_saved_by_coalescing"] == (
            metrics["uncoalesced_routed_gets"]
            - metrics["coalesced_routed_gets"]
        )
        assert metrics["latency_p50_s"] <= metrics["latency_p99_s"]

    def test_range_respects_paper_bound_with_batching(self):
        """Batching must not change the §6.3 accounting: the per-query
        slack over B stays within the paper's +3, and rounds never
        exceed total gets."""
        metrics = benchgate.measure_range()["metrics"]
        assert metrics["lookup_slack_per_query"] <= 3.0
        assert (
            metrics["batch_rounds_per_query"] <= metrics["gets_per_query"]
        )
        assert (
            metrics["parallel_steps_per_query"] < metrics["gets_per_query"]
        )


class TestCompareLogic:
    def test_within_tolerance_passes(self):
        assert benchgate.compare({"m": 1.05}, {"m": 1.0}) == []

    def test_regression_fails(self):
        violations = benchgate.compare({"m": 1.2}, {"m": 1.0})
        assert len(violations) == 1 and "m" in violations[0]

    def test_improvement_passes_silently(self):
        assert benchgate.compare({"m": 0.4}, {"m": 1.0}) == []

    def test_missing_metric_is_a_violation(self):
        violations = benchgate.compare({}, {"m": 1.0})
        assert violations and "missing" in violations[0]

    def test_new_metrics_are_not_gated_until_written(self):
        assert benchgate.compare({"m": 1.0, "new": 99.0}, {"m": 1.0}) == []

    def test_custom_tolerance(self):
        assert benchgate.compare({"m": 1.4}, {"m": 1.0}, tolerance=0.5) == []
        assert benchgate.compare({"m": 1.6}, {"m": 1.0}, tolerance=0.5)

    def test_checked_in_baselines_parse(self):
        for name in ("BENCH_lookup.json", "BENCH_range.json"):
            data = _load(_ROOT / name)
            assert set(data) == {"params", "metrics"}
            assert data["metrics"], f"{name} has no metrics"
            assert all(
                isinstance(v, (int, float)) for v in data["metrics"].values()
            )

    def test_build_baseline_parses_with_ungated_info(self):
        """BENCH_build.json and BENCH_serve.json carry an extra ``info``
        section (wall-clock seconds / throughput — ungated views) that
        must never enter the gated metrics."""
        for name in ("BENCH_build.json", "BENCH_serve.json"):
            data = _load(_ROOT / name)
            assert set(data) == {"params", "metrics", "info"}
            assert data["metrics"], f"{name} has no metrics"
            assert all(
                isinstance(v, (int, float)) for v in data["metrics"].values()
            )
            assert not set(data["info"]) & set(data["metrics"])
