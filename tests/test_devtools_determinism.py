"""Determinism-harness tests: same-seed replay on LocalDHT and Chord.

The ``assert_deterministic`` fixture (tests/conftest.py) is the
issue-mandated entry point; the classes below also exercise the library
API, the divergence path, and the CLI driver.
"""

from __future__ import annotations

import pytest

import repro.devtools.determinism as determinism
from repro.devtools.determinism import (
    DeterminismReport,
    check_determinism,
    run_workload,
    trace_digest,
)
from repro.errors import ConfigurationError, DeterminismError


class TestSameSeedFixture:
    def test_local_substrate_is_deterministic(self, assert_deterministic):
        report = assert_deterministic(seed=3, substrate="local", n_ops=200)
        assert report.runs == 2
        assert len(set(report.digests)) == 1

    def test_chord_substrate_is_deterministic(self, assert_deterministic):
        assert_deterministic(seed=3, substrate="chord", n_ops=200, n_peers=12)

    def test_cached_local_substrate_is_deterministic(
        self, assert_deterministic
    ):
        """The leaf cache (LRU state, validation probes, invalidation)
        must replay identically from the root seed."""
        report = assert_deterministic(
            seed=3, substrate="cached-local", n_ops=200
        )
        assert len(set(report.digests)) == 1

    def test_cached_local_agrees_with_local_on_answers(self):
        """Same seed, cache on vs off: every trace line must agree on
        everything except cost (hits are cheaper, staleness dearer)."""
        plain = run_workload(seed=4, substrate="local", n_ops=150)
        cached = run_workload(seed=4, substrate="cached-local", n_ops=150)
        assert len(plain) == len(cached)

        def strip_cost(line: str) -> str:
            return " ".join(
                f for f in line.split() if not f.startswith("cost=")
            )

        for a, b in zip(plain, cached):
            assert strip_cost(a) == strip_cost(b)

    def test_serializing_local_trace_equals_local(self, assert_deterministic):
        """A byte store replays identically, and the whole event trace —
        costs, splits, merges, final digest — equals the reference
        store's: nothing in the index leans on in-process aliasing."""
        assert_deterministic(seed=3, substrate="serializing-local", n_ops=200)
        assert run_workload(
            seed=3, substrate="serializing-local", n_ops=200
        ) == run_workload(seed=3, substrate="local", n_ops=200)

    def test_deploy_local_stack_is_deterministic(self, assert_deterministic):
        """The one arm with a replica layer: drops, retries and replica
        rescues replay from the root seed, and — every operation having
        succeeded — the stack ends holding exactly ``local``'s keys."""
        assert_deterministic(seed=3, substrate="deploy-local", n_ops=200)
        deployed = run_workload(seed=3, substrate="deploy-local", n_ops=200)
        assert not any("error=" in line for line in deployed)
        plain = run_workload(seed=3, substrate="local", n_ops=200)
        assert deployed[-1] == plain[-1]

    def test_sanitized_run_is_deterministic(
        self, assert_deterministic, monkeypatch
    ):
        """The sanitizer reads through the oracle only, so turning it on
        must not perturb the trace."""
        baseline = trace_digest(run_workload(seed=5, n_ops=150))
        monkeypatch.setenv("LHT_SANITIZE", "1")
        report = assert_deterministic(seed=5, substrate="local", n_ops=150)
        assert report.digests[0] == baseline


class TestLibraryApi:
    def test_different_seeds_diverge(self):
        a = trace_digest(run_workload(seed=0, n_ops=150))
        b = trace_digest(run_workload(seed=1, n_ops=150))
        assert a != b

    def test_trace_shape(self):
        events = run_workload(seed=0, n_ops=50)
        assert len(events) == 51  # one line per op + final digest line
        assert events[0].startswith("00000 ")
        assert events[-1].startswith("final ")

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ConfigurationError, match="substrate"):
            run_workload(substrate="carrier-pigeon")

    def test_too_few_runs_rejected(self):
        with pytest.raises(ConfigurationError, match="2 runs"):
            check_determinism(runs=1)

    def test_divergence_reported(self, monkeypatch):
        """Force a divergence and check the report pinpoints it."""
        real = determinism.run_workload
        calls = {"n": 0}

        def flaky(**kwargs):
            events = real(**kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                events[7] = events[7] + " cosmic-ray"
            return events

        monkeypatch.setattr(determinism, "run_workload", flaky)
        report = check_determinism(seed=0, n_ops=50)
        assert not report.matched
        assert report.first_divergence == 7
        assert any("cosmic-ray" in line for line in report.diff)
        assert "NON-DETERMINISTIC" in report.summary()
        with pytest.raises(DeterminismError, match="diverges at trace line 7"):
            report.raise_if_diverged()

    def test_matched_report_raise_is_noop(self):
        report = DeterminismReport(
            matched=True,
            runs=2,
            seed=0,
            substrate="local",
            digests=("abc", "abc"),
            first_divergence=None,
            diff=(),
        )
        report.raise_if_diverged()  # must not raise
        assert "deterministic" in report.summary()


class TestCli:
    def test_cli_reports_deterministic(self, capsys):
        code = determinism.main(["--seed", "2", "--ops", "80"])
        assert code == 0
        assert "deterministic" in capsys.readouterr().out

    def test_cli_bad_runs_is_a_clean_error(self, capsys):
        assert determinism.main(["--runs", "1", "--ops", "10"]) == 2
        assert "at least 2 runs" in capsys.readouterr().err
