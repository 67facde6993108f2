"""Render saved experiment results into a Markdown report.

Reads the per-experiment JSON files that ``lht-experiments --out DIR``
writes and produces a single Markdown document with one table per
experiment — the form EXPERIMENTS.md uses for its paper-vs-measured
record.

Usage::

    python -m repro.experiments.report results/paper > report.md
"""

from __future__ import annotations

import argparse
import itertools
import json
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult, Series, format_number

__all__ = ["load_result", "load_directory", "to_markdown", "main"]


def load_result(path: Path) -> ExperimentResult:
    """Load one saved experiment result from its JSON file."""
    try:
        data = json.loads(path.read_text())
        data["series"] = [Series(**series) for series in data["series"]]
        data.pop("timings", None)  # host-dependent; not part of a report
        return ExperimentResult(**data)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed result file {path}: {exc}") from exc


def load_directory(directory: str | Path) -> list[ExperimentResult]:
    """Load every ``e*.json`` result in a directory, ordered by ID."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"not a directory: {directory}")
    results = [load_result(p) for p in sorted(directory.glob("e*.json"))]

    def _id_key(result: ExperimentResult) -> tuple[int, str]:
        # IDs are "E<number>" with an optional letter suffix for
        # sub-figures sharing one experiment (E25, E25b, E25c).
        body = result.experiment_id.lstrip("E")
        digits = "".join(itertools.takewhile(str.isdigit, body))
        return int(digits), body[len(digits):]

    results.sort(key=_id_key)
    return results


def _markdown_table(result: ExperimentResult) -> str:
    header = [result.x_label] + [s.label for s in result.series]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
    ]
    # An error bar of exactly zero (a single trial) is rendered bare.
    for row in result.rows(lambda e: f" ± {format_number(e)}" if e else ""):
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def to_markdown(results: list[ExperimentResult]) -> str:
    """Render loaded results into one Markdown document."""
    chunks = ["# Experiment results\n"]
    for result in results:
        chunks.append(f"## {result.experiment_id}: {result.title}\n")
        chunks.append(
            f"*x: {result.x_label}; y: {result.y_label}; "
            f"scale: {result.params.get('scale', '?')}, "
            f"seed: {result.params.get('seed', '?')}*\n"
        )
        chunks.append(_markdown_table(result) + "\n")
        if result.notes:
            chunks.append(f"> {result.notes}\n")
    return "\n".join(chunks)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Render saved experiment JSON into Markdown."
    )
    parser.add_argument("directory", help="directory of e*.json result files")
    args = parser.parse_args(argv)
    print(to_markdown(load_directory(args.directory)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
