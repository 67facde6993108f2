"""Determinism of the parallel experiment engine (``--jobs N``).

Every experiment cell derives its randomness from ``(root seed,
experiment, trial)``, so process placement cannot change any number, and
the parent merges results in submission order.  A ``--jobs 4`` run must
therefore be byte-identical to ``--jobs 1`` — in both printed tables and
result JSON.  Results record no wall-clock, so nothing is filtered.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiments

_NAMES = ["eq3", "minmax", "routing-diversity"]


def test_parallel_run_is_byte_identical_to_serial(capsys):
    serial = run_experiments(_NAMES, scale="ci", seed=0, jobs=1)
    serial_out = capsys.readouterr().out
    parallel = run_experiments(_NAMES, scale="ci", seed=0, jobs=4)
    parallel_out = capsys.readouterr().out

    assert parallel_out == serial_out
    assert len(parallel) == len(serial)
    for fast, slow in zip(parallel, serial):
        assert json.dumps(fast.to_json(), sort_keys=True) == json.dumps(
            slow.to_json(), sort_keys=True
        )


def test_jobs_must_be_positive():
    with pytest.raises(ConfigurationError):
        run_experiments(_NAMES, jobs=0)
