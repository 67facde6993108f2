"""Smoke tests for the example scripts.

The lightest example runs end-to-end in a subprocess; the rest are
compiled and import-checked so a refactor can't silently break them
(their full runs are exercised manually / in docs, not per-CI, because
they build multi-thousand-record indexes).
"""

from __future__ import annotations

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in ALL_EXAMPLES}
    assert {
        "quickstart.py",
        "media_library_range_search.py",
        "p2p_database_minmax.py",
        "churn_resilience.py",
        "deployment_stack.py",
    } <= names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_examples_compile(path: Path):
    py_compile.compile(str(path), doraise=True)


def test_quickstart_runs():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "min key" in result.stdout
    assert "average split fraction alpha" in result.stdout


def test_churn_resilience_reports_keys_handed_off():
    """The example is the one reader of ``keys_transferred``; both churn
    phases print the count the kernel's hand-off methods summed."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "churn_resilience.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "(582 keys handed off)" in result.stdout
    assert "(111 keys handed off)" in result.stdout
