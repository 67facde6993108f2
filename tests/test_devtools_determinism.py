"""Determinism-harness tests: same-seed replay on LocalDHT and Chord.

The ``assert_deterministic`` fixture (tests/conftest.py) is the
issue-mandated entry point; the classes below also exercise the library
API, the divergence path, and the CLI driver.
"""

from __future__ import annotations

import json
from pathlib import Path

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
        """Same seed, cache on vs off: every op line and the final line
        agree on everything except cost (hits are cheaper, staleness
        dearer).  The ``stack`` line is left out: it is the stack's own
        counter ledger, where the cache's savings show."""
        plain = run_workload(seed=4, substrate="local", n_ops=150)
        cached = run_workload(seed=4, substrate="cached-local", n_ops=150)
        assert len(plain) == len(cached)

        def strip_cost(line: str) -> str:
            return " ".join(
                f for f in line.split() if not f.startswith("cost=")
            )

        assert plain[-2].startswith("stack ") and cached[-2].startswith("stack ")
        for a, b in zip(plain[:-2] + plain[-1:], cached[:-2] + cached[-1:]):
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
        # one line per op + the stack's counters + final digest line
        assert len(events) == 52
        assert events[0].startswith("00000 ")
        assert events[-2].startswith("stack ") and " dht_lookups=" in events[-2]
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


class TestPinnedDigests:
    """Every gate arm's whole-trace digest at seed 0 / 200 ops, pinned
    in ``tests/data/determinism_digests.json``.  The ``stack`` line
    makes the arms distinct: chord's hops, resilient-local's retries and
    deploy-local's replica probes all move a digest, and only
    ``serializing-local`` shares ``local``'s (a byte store charges
    exactly what a reference store charges)."""

    PINNED = json.loads(
        (Path(__file__).parent / "data" / "determinism_digests.json").read_text()
    )

    def test_every_arm_is_pinned(self):
        assert set(self.PINNED["digests"]) == set(determinism.SUBSTRATES)

    @pytest.mark.parametrize("arm", sorted(determinism.SUBSTRATES))
    def test_digest_matches_pin(self, arm):
        events = run_workload(
            seed=self.PINNED["seed"], substrate=arm, n_ops=self.PINNED["n_ops"]
        )
        assert trace_digest(events) == self.PINNED["digests"][arm]

    def test_only_the_byte_store_shares_a_digest(self):
        digests = self.PINNED["digests"]
        assert digests["serializing-local"] == digests["local"]
        assert len(set(digests.values())) == len(digests) - 1


class TestCli:
    def test_cli_reports_deterministic(self, capsys):
        code = determinism.main(["--seed", "2", "--ops", "80"])
        assert code == 0
        assert "deterministic" in capsys.readouterr().out

    def test_cli_bad_runs_is_a_clean_error(self, capsys):
        assert determinism.main(["--runs", "1", "--ops", "10"]) == 2
        assert "at least 2 runs" in capsys.readouterr().err
