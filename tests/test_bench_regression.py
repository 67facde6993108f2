"""Tier-2 benchmark regression gate (``-m bench``) + gate-logic units.

The ``bench``-marked tests re-measure the count-based workload of
:mod:`repro.devtools.benchgate` and fail when any metric rises above its
checked-in baseline (``BENCH_lookup.json`` / ``BENCH_range.json`` /
``BENCH_build.json`` / ``BENCH_serve.json``).
They are excluded from the default (tier-1) run
by the ``-m "not bench"`` addopts and executed by the CI smoke step::

    PYTHONPATH=src python -m pytest tests/test_bench_regression.py -m bench

The unmarked tests pin the comparison logic and the CLI's exit codes
and always run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.devtools import benchgate
from repro.dht.metrics import MetricsRecorder
from repro.errors import ReproError

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
            "python -m repro.devtools benchgate --write"
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
            "python -m repro.devtools benchgate --write"
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
            "python -m repro.devtools benchgate --write"
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
        """The gate is exact: only a value at or below its baseline passes."""
        assert benchgate.compare({"m": 1.0}, {"m": 1.0}) == []

    def test_one_ulp_rise_fails(self):
        """Every gated metric is a seed-deterministic count or simulated
        time, so even the smallest representable rise is a regression."""
        violations = benchgate.compare({"m": math.nextafter(1.0, 2.0)}, {"m": 1.0})
        assert len(violations) == 1 and "m" in violations[0]

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

    def test_checked_in_baselines_parse(self):
        for name in ("BENCH_lookup.json", "BENCH_range.json", "BENCH_build.json"):
            data = _load(_ROOT / name)
            assert set(data) == {"params", "metrics"}
            assert data["metrics"], f"{name} has no metrics"
            assert all(
                isinstance(v, (int, float)) for v in data["metrics"].values()
            )

    def test_build_baseline_parses_with_ungated_info(self):
        """BENCH_serve.json and BENCH_avail.json carry an extra ``info``
        section (simulated throughput, availability — ungated views) that
        must never enter the gated metrics.  BENCH_build.json carries
        none (``test_checked_in_baselines_parse`` pins its two sections):
        build wall time is ``bench/``'s ``setup_s``."""
        for name in ("BENCH_serve.json", "BENCH_avail.json"):
            data = _load(_ROOT / name)
            assert set(data) == {"params", "metrics", "info"}
            assert data["metrics"], f"{name} has no metrics"
            assert all(
                isinstance(v, (int, float)) for v in data["metrics"].values()
            )
            assert not set(data["info"]) & set(data["metrics"])


def _fake_lookup(value: float = 2.0) -> dict:
    return {"params": {"seed": 1}, "metrics": {"gets_per_probe": value}}


class TestServeGateBalances:
    def test_off_by_one_coalesced_count_fails_the_gate(self, monkeypatch):
        """``measure_serve`` raises unless replayed gets − served gets
        equals the dedup count the batches recorded, to the unit."""
        record_batch = MetricsRecorder.record_batch
        extra = iter([1])

        def off_by_one(self, coalesced_gets):
            record_batch(self, coalesced_gets + next(extra, 0))

        monkeypatch.setattr(MetricsRecorder, "record_batch", off_by_one)
        with pytest.raises(ReproError, match="do not balance"):
            benchgate.measure_serve()


class TestCliExitCodes:
    """``main`` exit codes, on the lookup suite with its measurement and
    baseline path replaced (no workload runs)."""

    def _run(self, monkeypatch, tmp_path, measured: dict, argv: list[str]):
        monkeypatch.setattr(
            benchgate, "LOOKUP_BASELINE", tmp_path / "BENCH_lookup.json"
        )
        monkeypatch.setattr(benchgate, "measure_lookup", lambda seed: measured)
        return benchgate.main([*argv, "--only", "lookup"])

    def test_missing_baseline_exits_nonzero(self, monkeypatch, tmp_path):
        assert self._run(monkeypatch, tmp_path, _fake_lookup(), ["--check"]) == 1

    def test_write_then_check_exits_zero(self, monkeypatch, tmp_path):
        assert self._run(monkeypatch, tmp_path, _fake_lookup(), ["--write"]) == 0
        assert self._run(monkeypatch, tmp_path, _fake_lookup(), ["--check"]) == 0

    def test_regression_exits_nonzero(self, monkeypatch, tmp_path):
        assert self._run(monkeypatch, tmp_path, _fake_lookup(), ["--write"]) == 0
        code = self._run(monkeypatch, tmp_path, _fake_lookup(2.5), ["--check"])
        assert code == 1
