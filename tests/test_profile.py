"""Tests for the scale workload and its hot-spot profiler
(``python -m repro.devtools benchgate --hotspots``).

The profiler's contract is that the hot-spot *ranking* is a pure
function of the seed — rows order by call count (ties by normalized
function name), never by measured time — so two same-seed runs on any
host agree byte-for-byte on which functions are hot.  These tests pin
that, plus the host-independent function naming and the CLI surface.

The workload here is a deliberately tiny custom shape (not the smoke
profile) so the double profiled run stays fast in tier-1.
"""

from __future__ import annotations

from repro.devtools import benchgate

#: Tiny but non-degenerate shape: enough keys to split leaves and
#: exercise every phase, small enough to profile twice in tier-1.
_TINY = {
    "seed": 7,
    "n_keys": 2048,
    "n_peers": 16,
    "n_probes": 200,
    "n_ranges": 4,
    "theta_split": 40,
    "max_depth": 24,
    "probe_skew": 1.1,
    "range_lo_max": 0.9,
    "range_width_min": 0.01,
    "range_width_max": 0.05,
}


class TestRunScalePhases:
    def test_phase_names_and_counts_shape(self):
        phases = benchgate.run_scale_phases(dict(_TINY))
        assert [p.name for p in phases] == ["build", "lookup", "range"]
        assert set(phases[0].counts) == {"leaves"}
        assert set(phases[1].counts) == {"lookup_gets"}
        assert set(phases[2].counts) == {"range_records"}
        assert phases[0].counts["leaves"] > 1  # the workload actually split

    def test_counts_are_seed_deterministic(self):
        a = benchgate.run_scale_phases(dict(_TINY))
        b = benchgate.run_scale_phases(dict(_TINY))
        assert [p.counts for p in a] == [p.counts for p in b]

    def test_hotspot_ranking_is_stable_across_same_seed_runs(self):
        """The acceptance property: rank by (calls desc, name) only —
        identical across runs even though the measured seconds differ."""
        a = benchgate.run_scale_phases(dict(_TINY))
        b = benchgate.run_scale_phases(dict(_TINY))
        for pa, pb in zip(a, b):
            ranking_a = [(r["function"], r["calls"]) for r in pa.hotspots]
            ranking_b = [(r["function"], r["calls"]) for r in pb.hotspots]
            assert ranking_a == ranking_b, f"phase {pa.name} ranking drifted"
            assert ranking_a, f"phase {pa.name} profiled no calls"

    def test_hotspots_rank_by_calls_then_name(self):
        phases = benchgate.run_scale_phases(dict(_TINY))
        for phase in phases:
            assert len(phase.hotspots) == benchgate.HOTSPOT_ROWS
            keys = [(-r["calls"], r["function"]) for r in phase.hotspots]
            assert keys == sorted(keys)


class TestNormalizeFunction:
    def test_builtins_normalize_without_paths(self):
        assert (
            benchgate._normalize_function("~", 0, "<built-in method len>")
            == "<builtin>:<built-in method len>"
        )
        assert (
            benchgate._normalize_function("<string>", 2, "__init__")
            == "<builtin>:__init__"
        )

    def test_repro_paths_anchor_at_package_root(self):
        name = benchgate._normalize_function(
            "/home/someone/src/repro/core/bucket.py", 124, "add"
        )
        assert name == "repro/core/bucket.py:124:add"

    def test_foreign_paths_keep_basename_only(self):
        name = benchgate._normalize_function("/usr/lib/python3/random.py", 1, "f")
        assert name == "random.py:1:f"


class TestCli:
    def test_text_report_lists_every_phase(self, capsys, monkeypatch):
        monkeypatch.setitem(benchgate.SCALE_PROFILES, "tiny", dict(_TINY))
        assert benchgate.main(
            ["--hotspots", "--scale-profile", "tiny", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        for phase in ("build", "lookup", "range"):
            assert f"== {phase}:" in out
        assert "function" in out
