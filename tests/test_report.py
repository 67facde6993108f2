"""Tests for the Markdown report generator."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult, Series
from repro.experiments.report import (
    load_directory,
    load_result,
    main,
    to_markdown,
)


def _sample(experiment_id: str = "E1") -> ExperimentResult:
    return ExperimentResult(
        experiment_id=experiment_id,
        title="demo",
        x_label="size",
        y_label="cost",
        params={"scale": "ci", "seed": 0},
        series=[
            Series("lht", [1.0, 2.0], [3.0, 4.0], [0.1, 0.0]),
            Series("pht", [1.0, 2.0], [6.0, 8.0]),
        ],
        notes="shape holds",
    )


class TestLoading:
    def test_roundtrip_through_save(self, tmp_path):
        path = _sample().save(tmp_path)
        loaded = load_result(path)
        assert loaded.experiment_id == "E1"
        assert loaded.series_by_label("lht").y == [3.0, 4.0]
        assert loaded.series_by_label("lht").y_err == [0.1, 0.0]

    def test_directory_ordering(self, tmp_path):
        for exp in ("E10", "E2", "E1"):
            _sample(exp).save(tmp_path)
        results = load_directory(tmp_path)
        assert [r.experiment_id for r in results] == ["E1", "E2", "E10"]

    def test_per_substrate_ids_sort_between_their_neighbours(self, tmp_path):
        for exp in ("E26b", "E26-local", "E25c", "E26-chord", "E3"):
            _sample(exp).save(tmp_path)
        assert (tmp_path / "e26-chord.json").exists()
        assert [r.experiment_id for r in load_directory(tmp_path)] == [
            "E3",
            "E25c",
            "E26-chord",
            "E26-local",
            "E26b",
        ]

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "e1.json"
        bad.write_text(json.dumps({"oops": True}))
        with pytest.raises(ConfigurationError):
            load_result(bad)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_directory(tmp_path / "nope")


class TestRendering:
    def test_markdown_contains_tables_and_notes(self):
        text = to_markdown([_sample()])
        assert "## E1: demo" in text
        assert "| size | lht | pht |" in text
        assert "± 0.1" in text
        assert "> shape holds" in text

    def test_error_of_zero_not_rendered(self):
        text = to_markdown([_sample()])
        # second lht point has y_err 0.0: rendered bare
        assert "| 2 | 4 | 8 |" in text

    def test_cli(self, tmp_path, capsys):
        _sample().save(tmp_path)
        assert main([str(tmp_path)]) == 0
        assert "## E1: demo" in capsys.readouterr().out
