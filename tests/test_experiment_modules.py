"""Smoke tests for the heavier experiment modules at reduced scale.

Each module's ``_SCALES`` table is monkeypatched with a tiny grid so the
full code path (sweeps, aggregation, series assembly, shape notes) runs
in milliseconds; the CI-scale defaults are exercised by the runner CLI.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    ablation_lookup,
    churn_study,
    fig6_alpha,
    fig7_maintenance,
    fig8_lookup,
    minmax_cost,
    range_perf,
    substrates,
)
from repro.experiments.runner import EXPERIMENTS

#: One toy ``_SCALES`` row per registered experiment, keyed by its
#: ``runner.EXPERIMENTS`` name (milliseconds each).
TINY_SCALES = {
    "fig6": {"exps": (7, 9), "trials": 2, "fixed_size_exp": 8},
    "fig7": {"exps": (7, 9), "trials": 2},
    "fig8": {"exps": (7, 9), "trials": 2, "n_lookups": 30},
    "range": {
        "exps": (7, 9),
        "trials": 1,
        "n_queries": 10,
        "fixed_size_exp": 8,
        "size_sweep_span": 0.1,
        "spans": [0.05, 0.2],
    },
    "eq3": {"size": 1 << 8, "theta": 20},
    "minmax": {"exps": (7, 9), "trials": 2},
    "substrates": {"n_peers": [8, 16], "size": 1 << 8, "n_lookups": 10},
    "churn": {"n_peers": 16, "size": 1 << 8, "duration": 5.0, "probes": 30},
    "balance": {"n_peers": 16, "size": 1 << 8},
    "ablation": {"exps": (7, 8), "trials": 1, "n_lookups": 30},
    "latency": {"size": 1 << 8, "n_queries": 10, "n_peers": 64},
    "workload": {"n_ops": 300, "trials": 2},
    "hotspots": {"size": 1 << 8, "n_lookups": 30, "n_ranges": 10, "n_peers": 16},
    "availability": {"n_peers": 8, "size": 1 << 7, "probes": 30},
    "cached": {"n_peers": 8, "size": 1 << 9, "probes": 60, "small_capacity": 4},
    "routing-diversity": {
        "n_peers": [8, 16],
        "size": 1 << 7,
        "n_lookups": 10,
        "n_ranges": 3,
        "span": 0.05,
    },
    "replica-availability": {
        "substrates": None,
        "n_peers": 8,
        "size": 1 << 6,
        "probes": 20,
        "drop_rates": [0.0, 0.3],
    },
}

_PINNED = Path(__file__).parent / "data" / "experiments_tiny.json"


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every experiment's scale table to a toy grid."""
    for name, row in TINY_SCALES.items():
        module = sys.modules[EXPERIMENTS[name][1].__module__]
        monkeypatch.setitem(module._SCALES, "tiny", row)
    return "tiny"


def result_digest(result) -> str:
    """sha256 of a result's byte-comparable view."""
    payload = json.dumps(result.canonical_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestPinnedResults:
    """Every registered experiment at the toy scale, byte for byte.

    ``tests/data/experiments_tiny.json`` was captured on the code *before*
    the harness was folded into ``experiments/common.py`` (``sweep``,
    ``scale_params``, the shared cells), so a refactor that moves any
    number, label, note or ``params`` entry fails here.  The one intended
    difference from that capture: the eight per-substrate E26 tables,
    which all carried ``experiment_id == "E26"``, are pinned under their
    distinct ``E26-<substrate>`` ids (same payload otherwise).
    """

    def test_fixture_covers_every_registered_experiment(self):
        assert set(TINY_SCALES) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_byte_identical_to_the_pinned_capture(self, tiny, name):
        pinned = json.loads(_PINNED.read_text())["digests"][name]
        results = EXPERIMENTS[name][1](tiny, 0)
        assert {r.experiment_id: result_digest(r) for r in results} == pinned


class TestEveryResultIsSaved:
    """A result is saved under its id, so ids must be unique in a run:
    before PR 19 the eight per-substrate E26 tables shared one id and
    ``--out`` kept only the last."""

    def test_ids_unique_and_one_file_per_result(self, tiny, tmp_path, capsys):
        from repro.experiments.runner import run_experiments

        results = run_experiments(
            list(EXPERIMENTS), scale=tiny, seed=0, out=str(tmp_path)
        )
        ids = [r.experiment_id for r in results]
        assert len(set(ids)) == len(ids)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{i.lower()}.json" for i in ids
        )
        saved = capsys.readouterr().out.count("  saved: ")
        assert saved == len(results)


class TestFig6(object):
    def test_alpha_curves(self, tiny):
        e1, e2 = fig6_alpha.run(tiny, seed=0)
        assert e1.experiment_id == "E1" and e2.experiment_id == "E2"
        # alpha stays within sane bounds wherever splits occurred
        # (NaN marks checkpoints before the first split at large θ)
        import math

        for series in e1.series:
            assert all(0.4 < y < 0.7 for y in series.y if not math.isnan(y))
        assert len(e2.series_by_label("uniform").y) == 7


class TestFig7(object):
    def test_monotone_cumulative_costs(self, tiny):
        e3, e4 = fig7_maintenance.run(tiny, seed=0)
        for result in (e3, e4):
            for series in result.series:
                assert series.y == sorted(series.y)  # cumulative => monotone
        lht = e4.series_by_label("lht/uniform").y[-1]
        pht = e4.series_by_label("pht/uniform").y[-1]
        assert lht < pht


class TestFig8(object):
    def test_lht_below_pht(self, tiny):
        e5, e6 = fig8_lookup.run(tiny, seed=0)
        for result in (e5, e6):
            lht = sum(result.series_by_label("lht").y)
            pht = sum(result.series_by_label("pht").y)
            assert 1 - lht / pht > 0.1  # Fig. 8: a real saving, not a tie
            assert "saving ratio" in result.notes


class TestRangePerf(object):
    def test_all_four_results(self, tiny):
        results = range_perf.run(tiny, seed=0)
        assert [r.experiment_id for r in results] == ["E7", "E8", "E9", "E10"]
        e7, e8, e9, e10 = results
        # bandwidth ordering at the widest span point
        par = e8.series_by_label("pht-par/uniform").y[-1]
        lht = e8.series_by_label("lht/uniform").y[-1]
        assert lht < par
        assert lht <= e8.series_by_label("pht-seq/uniform").y[-1]
        # latency: sequential is the worst at the widest span
        seq = e10.series_by_label("pht-seq/uniform").y[-1]
        lht_lat = e10.series_by_label("lht/uniform").y[-1]
        assert lht_lat < seq


class TestOthers(object):
    def test_ablation(self, tiny):
        (result,) = ablation_lookup.run(tiny, seed=0)
        assert len(result.series) == 4

    def test_minmax(self, tiny):
        (result,) = minmax_cost.run(tiny, seed=0)
        assert all(y == 1 for y in result.series_by_label("lht-min").y)
        assert all(y == 1 for y in result.series_by_label("lht-max").y)
        # Theorem 3 vs the baseline: PHT descends one probe per level.
        assert all(y > 1 for y in result.series_by_label("pht-min").y)
        assert all(y > 1 for y in result.series_by_label("pht-max").y)

    def test_substrates(self, tiny):
        from repro.dht.registry import names as substrate_names

        (result,) = substrates.run(tiny, seed=0)
        assert {s.label for s in result.series} == set(substrate_names())

    def test_churn(self, tiny):
        (result,) = churn_study.run(tiny, seed=0)
        exact = result.series_by_label("exact-match availability")
        assert exact.y[0] == 1.0  # graceful-only churn loses nothing
