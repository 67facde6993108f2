"""Tests for the experiment harness: utilities, fast experiments, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht import registry
from repro.dht.faulty import FaultyDHT
from repro.dht.local import LocalDHT
from repro.errors import ConfigurationError, ReproError
from repro.experiments import runner
from repro.experiments.common import (
    ExperimentResult,
    Series,
    hops_per_lookup,
    probe_stored,
    scale_params,
    summarize,
    sweep,
    trial_rng,
    zipf_probe_cost,
)
from repro.experiments import eq3_saving, fig6_alpha, load_balance, minmax_cost
from repro.workloads.queries import zipf_rank_choice


class TestSeries:
    def test_validates_lengths(self):
        with pytest.raises(ConfigurationError):
            Series("s", [1.0, 2.0], [1.0])
        with pytest.raises(ConfigurationError):
            Series("s", [1.0], [1.0], y_err=[0.1, 0.2])

    def test_ok(self):
        s = Series("s", [1.0, 2.0], [3.0, 4.0], y_err=[0.1, 0.2])
        assert s.label == "s"


class TestExperimentResult:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="EX",
            title="demo",
            x_label="x",
            y_label="y",
            params={"p": 1},
            series=[
                Series("a", [1.0, 2.0], [10.0, 20.0]),
                Series("b", [2.0, 3.0], [30.0, 40.0], y_err=[1.0, 2.0]),
            ],
            notes="hello",
        )

    def test_table_rendering(self):
        table = self._result().to_table()
        assert "EX: demo" in table
        assert "hello" in table
        # x=1 appears only in series a; series b shows '-'
        line = next(l for l in table.splitlines() if l.strip().startswith("1 "))
        assert "-" in line

    def test_json_roundtrip(self):
        data = self._result().to_json()
        assert json.dumps(data)  # serializable
        assert data["series"][1]["y_err"] == [1.0, 2.0]

    def test_save(self, tmp_path):
        path = self._result().save(tmp_path)
        assert path.exists()
        assert json.loads(path.read_text())["experiment_id"] == "EX"

    def test_series_by_label(self):
        result = self._result()
        assert result.series_by_label("a").y == [10.0, 20.0]
        with pytest.raises(ConfigurationError):
            result.series_by_label("zzz")


class TestCommonHelpers:
    def test_make_dht_all_substrates(self):
        for name in registry.names():
            dht = registry.make(name, 8, 0)
            dht.put("k", 1)
            assert dht.get("k") == 1

    def test_make_dht_unknown(self):
        with pytest.raises(ConfigurationError):
            registry.make("napster", 8, 0)

    def test_trial_rng_deterministic_and_distinct(self):
        a = trial_rng(0, "x", 0).random(3)
        b = trial_rng(0, "x", 0).random(3)
        c = trial_rng(0, "x", 1).random(3)
        assert (a == b).all()
        assert not (a == c).all()


class TestFastExperiments:
    def test_eq3(self):
        (result,) = eq3_saving.run("ci", seed=0)
        measured = result.series_by_label("measured")
        assert all(0.45 <= y <= 0.80 for y in measured.y)
        analytic = result.series_by_label("analytic @ sweep")
        for got, want in zip(measured.y, analytic.y):
            assert abs(got - want) < 0.1

    def test_unknown_scale_rejected(self):
        for module in (eq3_saving, fig6_alpha, minmax_cost, load_balance):
            with pytest.raises(ConfigurationError):
                module.run("galactic")

    def test_expected_alpha(self):
        assert fig6_alpha.expected_alpha(100) == pytest.approx(0.505)

    def test_load_balance(self):
        (result,) = load_balance.run("ci", seed=0)
        lht = result.series_by_label("lht")
        # skew-independence: Gini varies little across distributions
        assert max(lht.y) - min(lht.y) < 0.2


class TestRunnerCLI:
    def test_list(self, capsys):
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "range" in out

    def test_no_args_lists(self, capsys):
        assert runner.main([]) == 0
        assert "fig7" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert runner.main(["figure99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_and_saves(self, tmp_path, capsys):
        code = runner.main(["eq3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "E11" in out
        assert (tmp_path / "e11.json").exists()

    def test_registry_covers_all_experiment_ids(self):
        names = set(runner.EXPERIMENTS)
        assert names == {
            "fig6",
            "fig7",
            "fig8",
            "range",
            "eq3",
            "minmax",
            "substrates",
            "churn",
            "balance",
            "ablation",
            "latency",
            "workload",
            "hotspots",
            "availability",
            "cached",
            "routing-diversity",
            "replica-availability",
        }

    def test_latency_experiment(self):
        from repro.experiments import latency_study

        (result,) = latency_study.run("ci", seed=0)
        medians = result.series_by_label("median")
        lht, pht_seq, pht_par = medians.y
        assert lht < pht_par < pht_seq


# ----------------------------------------------------------------------
# The shared harness: sweep / summarize / scale_params and the three
# measured cells of repro.experiments.common
# ----------------------------------------------------------------------

_SCALES = {"ci": {}}  # lets the runner treat this module as an experiment


class TestSweep:
    def test_call_order_is_x_major_trial_minor(self):
        calls = []

        def measure(x, trial, rng):
            calls.append((x, trial))
            return {"y": 0.0}

        sweep(0, lambda x: f"t:{x}", [8, 16], 3, measure)
        assert calls == [(8, 0), (8, 1), (8, 2), (16, 0), (16, 1), (16, 2)]

    def test_each_cell_draws_from_its_named_stream(self):
        drawn = {}

        def measure(x, trial, rng):
            drawn[(x, trial)] = rng.random(2).tolist()
            return {"y": 0.0}

        sweep(5, lambda x: f"fig:lht:{x}", [8, 16], 2, measure)
        for (x, trial), numbers in drawn.items():
            expected = trial_rng(5, f"fig:lht:{x}", trial).random(2).tolist()
            assert numbers == expected

    def test_mean_and_half_width_per_name(self):
        values = {(1, 0): 0.0, (1, 1): 2.0, (2, 0): 5.0, (2, 1): 5.0}
        curves = sweep(
            0,
            str,
            [1, 2],
            2,
            lambda x, trial, rng: {"a": values[x, trial], "b": 1.0},
        )
        assert list(curves) == ["a", "b"]
        a = curves["a"]
        assert (a.label, a.x, a.y) == ("a", [1.0, 2.0], [1.0, 5.0])
        assert a.y_err == [pytest.approx(1.96), 0.0]
        assert curves["b"].y == [1.0, 1.0]

    def test_one_trial_has_zero_half_width(self):
        (curve,) = sweep(0, str, [1, 2], 1, lambda x, t, rng: {"y": x}).values()
        assert curve.y == [1.0, 2.0]
        assert curve.y_err == [0.0, 0.0]

    def test_empty_xs(self):
        def never(x, trial, rng):
            raise AssertionError("measured with nothing to sweep")

        assert sweep(0, str, [], 3, never) == {}

    def test_summarize_takes_per_trial_rows_transposed(self):
        # Two trials that each ran through three checkpoints.
        per_trial = [
            [{"moved": 1}, {"moved": 2}, {"moved": 3}],
            [{"moved": 3}, {"moved": 4}, {"moved": 5}],
        ]
        curve = summarize([10, 20, 30], zip(*per_trial))["moved"]
        assert curve.x == [10.0, 20.0, 30.0]
        assert curve.y == [2.0, 3.0, 4.0]


class TestScaleParams:
    def test_returns_the_table_row_itself(self):
        scales = {"ci": {"trials": 3}}
        assert scale_params(scales, "ci") is scales["ci"]

    def test_unknown_scale_is_typed_and_names_the_defined_ones(self):
        with pytest.raises(ConfigurationError, match="galactic.*ci, paper"):
            scale_params({"ci": {}, "paper": {}}, "galactic")


def _three_key_index(dht=None):
    """One root leaf holding 0.1, 0.5, 0.9 (θ = 4, so no split)."""
    index = LHTIndex(dht or LocalDHT(4, 0), IndexConfig(theta_split=4))
    for key in _STORED:
        index.insert(key)
    return index


_STORED = [0.1, 0.5, 0.9]


class TestSharedCells:
    def test_probe_stored_counts_present_and_charges_the_gets(self):
        index = _three_key_index()
        expected_gets = sum(index.lookup(k).dht_lookups for k in _STORED)
        hits, spent = probe_stored(index, _STORED)
        assert hits == 3
        assert spent.gets == expected_gets > 0

    def test_probe_stored_does_not_count_absent_or_unreachable(self):
        index = _three_key_index()
        assert probe_stored(index, [0.1, 0.3])[0] == 1  # 0.3: proven ABSENT
        faulty = FaultyDHT(LocalDHT(4, 0), seed=0)
        lossy = _three_key_index(faulty)
        faulty.get_drop_rate = 1.0
        hits, spent = probe_stored(lossy, _STORED)
        assert hits == 0  # every reply dropped: UNREACHABLE, not PRESENT
        assert spent.gets > 0

    def test_zipf_probe_cost_is_gets_per_probe_of_the_drawn_stream(self):
        index = _three_key_index()
        gets, spent = zipf_probe_cost(
            index, _STORED, 1.1, 12, np.random.default_rng(7)
        )
        probes = zipf_rank_choice(
            np.asarray(_STORED), 1.1, 12, np.random.default_rng(7)
        )
        expected = sum(index.lookup(float(p)).dht_lookups for p in probes)
        assert spent.gets == expected
        assert gets == expected / 12

    def test_zipf_probe_cost_treats_an_absent_answer_as_an_error(self):
        index = _three_key_index()
        with pytest.raises(ReproError, match="reported absent"):
            zipf_probe_cost(
                index, _STORED + [0.3], 0.0, 40, np.random.default_rng(7)
            )

    def test_hops_per_lookup_and_the_invariance_check(self):
        reference: dict = {}

        def lookups(index):
            return lambda: [index.lookup(k) for k in _STORED]

        local = _three_key_index()
        hops = hops_per_lookup(
            "local", local.dht, lookups(local), "lookups at N=4", reference
        )
        spent_lookups = reference["lookups at N=4"]
        assert spent_lookups == sum(local.lookup(k).dht_lookups for k in _STORED)
        assert hops > 0

        # The same phase on another overlay: same index-level count,
        # its own routing cost.
        chord = _three_key_index(registry.make("chord", 4, 0))
        assert hops_per_lookup(
            "chord", chord.dht, lookups(chord), "lookups at N=4", reference
        ) > 0
        assert reference == {"lookups at N=4": spent_lookups}

        # A substrate that pays a different count breaks footnote 5.
        with pytest.raises(ReproError, match="differs on onehop"):
            hops_per_lookup(
                "onehop",
                local.dht,
                lambda: local.lookup(0.1),
                "lookups at N=4",
                reference,
            )
        with pytest.raises(ReproError, match="no DHT-lookups"):
            hops_per_lookup("local", local.dht, lambda: None, "idle", reference)


def _same_id_twice(scale, seed):
    result = ExperimentResult("EX", "demo", "x", "y", {}, [Series("s", [1.0], [1.0])])
    return [result, result]


class TestRunnerRefusals:
    def test_undefined_scale_is_one_error_line_and_runs_nothing(self, capsys):
        assert runner.main(["eq3", "--scale", "smoke"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "'eq3'" in line and "ci, paper" in line

    def test_jobs_zero_is_one_error_line(self, capsys):
        assert runner.main(["eq3", "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")

    def test_scale_is_checked_for_every_name_before_any_runs(self, capsys):
        with pytest.raises(ConfigurationError, match="'eq3' defines no scale"):
            runner.run_experiments(["replica-availability", "eq3"], scale="smoke")
        assert capsys.readouterr().out == ""

    def test_list_shows_each_experiments_scales(self, capsys):
        assert runner.main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("replica-availability")
            and line.endswith("[scales: smoke, ci, paper]")
            for line in lines
        )
        assert all(line.endswith("]") for line in lines)

    def test_two_results_with_one_id_are_refused_not_overwritten(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setitem(runner.EXPERIMENTS, "twice", ("dup", _same_id_twice))
        assert runner.main(["twice", "--out", str(tmp_path)]) == 2
        assert "second result with id 'EX'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["ex.json"]
