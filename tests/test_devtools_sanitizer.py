"""Runtime-sanitizer tests: activation, healthy runs, the bulk-load
allowance, Theorem 2 event checks.

What the sanitizer shares with ``IndexInspector.verify()`` — the one
structural check in ``repro.core.stats`` — is tested, per corruption and
per entry point, by the table in ``tests/test_inspector_corruption.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndexConfig, IndexInspector, Label, LHTIndex, Record
from repro.core.results import MergeEvent, SplitEvent
from repro.core.stats import sanitizer_mode
from repro.devtools import IndexSanitizer, sanitizer_enabled
from repro.dht import ChordDHT, LocalDHT
from repro.errors import SanitizerError


def _build(theta_split=4, n=60, sanitize=True, seed=0):
    dht = LocalDHT(16, 0)
    config = IndexConfig(theta_split=theta_split, max_depth=20, sanitize=sanitize)
    index = LHTIndex(dht, config)
    for key in np.random.default_rng(seed).random(n):
        index.insert(float(key))
    return index, dht, config


class TestActivation:
    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("LHT_SANITIZE", "1")
        assert sanitizer_enabled()
        assert sanitizer_mode() == "on"
        index = LHTIndex(LocalDHT(4, 0), IndexConfig(theta_split=4))
        assert index.sanitizer is not None

    def test_env_var_full_mode(self, monkeypatch):
        monkeypatch.setenv("LHT_SANITIZE", "full")
        assert sanitizer_mode() == "full"
        index = LHTIndex(LocalDHT(4, 0), IndexConfig(theta_split=4))
        assert index.sanitizer is not None
        assert index.sanitizer._full_sweeps

    def test_env_var_falsy_values_disable(self, monkeypatch):
        for value in ("0", "false", "off", ""):
            monkeypatch.setenv("LHT_SANITIZE", value)
            assert not sanitizer_enabled()
            assert sanitizer_mode() == "off"
        index = LHTIndex(LocalDHT(4, 0), IndexConfig(theta_split=4))
        assert index.sanitizer is None

    def test_config_flag_enables_without_env(self, monkeypatch):
        monkeypatch.delenv("LHT_SANITIZE", raising=False)
        index = LHTIndex(LocalDHT(4, 0), IndexConfig(theta_split=4, sanitize=True))
        assert index.sanitizer is not None

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("LHT_SANITIZE", raising=False)
        index = LHTIndex(LocalDHT(4, 0), IndexConfig(theta_split=4))
        assert index.sanitizer is None


class TestHealthyRuns:
    def test_sanitized_insert_delete_workload(self):
        index, _, _ = _build(n=80)
        sanitizer = index.sanitizer
        assert sanitizer is not None
        assert sanitizer.checks_run > 0
        assert sanitizer.splits_checked > 0

    def test_sanitized_merge_workload(self):
        dht = LocalDHT(8, 0)
        index = LHTIndex(
            dht,
            IndexConfig(
                theta_split=4, max_depth=20, merge_enabled=True, sanitize=True
            ),
        )
        keys = [float(k) for k in np.random.default_rng(1).random(60)]
        for key in keys:
            index.insert(key)
        for key in keys:
            index.delete(key)
        assert index.sanitizer.merges_checked > 0

    def test_sanitized_chord_substrate(self):
        dht = ChordDHT(n_peers=12, seed=0)
        index = LHTIndex(dht, IndexConfig(theta_split=4, sanitize=True))
        for key in np.random.default_rng(2).random(50):
            index.insert(float(key))
        assert index.sanitizer.checks_run > 0

    def test_skewed_overflow_is_not_a_false_positive(self):
        """A median split may shed nothing under skew; transient
        over-capacity buckets are legal and must not trip the sanitizer."""
        dht = LocalDHT(8, 0)
        index = LHTIndex(dht, IndexConfig(theta_split=4, sanitize=True))
        # Tight cluster: all keys share a long common prefix, so several
        # consecutive median splits move zero records.
        for i in range(12):
            index.insert(0.300001 + i * 1e-9)
        assert index.sanitizer.checks_run > 0


class TestBulkLoadAllowance:
    """One ``bulk_load`` is one mutation that may legally add many
    records to one bucket: its allowance is the records it inserted."""

    def test_duplicate_keys_fast_bulk_load_passes(self):
        # Nine equal keys, θ=8: median splits shed nothing, so the
        # sorted build leaves one over-capacity bucket — legal.
        index = LHTIndex(
            LocalDHT(16, 3), IndexConfig(theta_split=8, max_depth=12, sanitize=True)
        )
        assert index.bulk_load([0.0] * 9, fast=True) == 9
        assert index.sanitizer.checks_run == 1
        assert max(len(b) for b in IndexInspector(index.dht).buckets().values()) == 9

    def test_skewed_fast_bulk_load_passes(self):
        # A tight cluster far above the depth cap: the sorted build's
        # one-split-per-insert replay leaves over-capacity buckets.
        index = LHTIndex(
            LocalDHT(16, 3), IndexConfig(theta_split=8, max_depth=40, sanitize=True)
        )
        keys = [0.300001 + i * 1e-9 for i in range(200)]
        index.bulk_load(keys[:50], fast=True)
        index.bulk_load(keys[50:], fast=True)  # layered, on a swept tree
        assert index.sanitizer.checks_run == 2


class TestCorruptionDetection:
    def test_corruption_caught_on_next_mutation(self):
        """The wired-in hook: corrupt between operations, the next insert
        trips the sweep — also right after a bulk load, whose batch
        allowance is spent by the sweep that used it.  (Every other
        corruption × entry point: tests/test_inspector_corruption.py.)
        """
        index, dht, _ = _build(sanitize=True, n=0)
        index.bulk_load(
            [float(k) for k in np.random.default_rng(4).random(40)], fast=True
        )
        bucket = next(iter(IndexInspector(dht).buckets().values()))
        low, width = bucket.label.interval.low, bucket.label.interval.width
        bucket.extend(
            [Record(float(low + width * (i + 1) / 40)) for i in range(30)]
        )
        with pytest.raises(SanitizerError, match="more than 1 above"):
            for probe in np.random.default_rng(9).random(10):
                index.insert(float(probe))


class TestTheorem2Checks:
    def test_valid_split_event_passes(self):
        index, dht, config = _build(sanitize=True, n=40)
        sanitizer = index.sanitizer
        assert sanitizer.splits_checked > 0  # exercised by the build

    def test_split_event_with_swapped_children_rejected(self):
        _, dht, config = _build(sanitize=False)
        sanitizer = IndexSanitizer(dht, config)
        # Parent ends in 0, so appending 0 extends the trailing run: the
        # LEFT child shares f_n with the parent and must be retained.
        parent = Label("010")
        bogus = SplitEvent(
            parent=parent,
            local=parent.right_child,  # wrong child retained
            remote=parent.left_child,
            alpha=0.5,
            records_moved=0,
            dht_lookups=1,
        )
        with pytest.raises(SanitizerError, match="Theorem 2"):
            sanitizer.check_split(bogus)

    def test_split_event_with_foreign_children_rejected(self):
        _, dht, config = _build(sanitize=False)
        sanitizer = IndexSanitizer(dht, config)
        bogus = SplitEvent(
            parent=Label("010"),
            local=Label("0110"),
            remote=Label("0111"),
            alpha=0.5,
            records_moved=0,
            dht_lookups=1,
        )
        with pytest.raises(SanitizerError, match="children"):
            sanitizer.check_split(bogus)

    def test_merge_event_dual_rejected(self):
        _, dht, config = _build(sanitize=False)
        sanitizer = IndexSanitizer(dht, config)
        parent = Label("010")
        # The absorbed child must be the parent-named one (#0101 here,
        # since f_n(#0101) = #010); absorbing #0100 is the wrong dual.
        bogus = MergeEvent(
            survivor=parent,
            absorbed=parent.left_child,
            records_moved=0,
            dht_lookups=2,
        )
        with pytest.raises(SanitizerError, match="Theorem 2 dual"):
            sanitizer.check_merge(bogus)

    def test_merge_event_valid_dual_passes(self):
        _, dht, config = _build(sanitize=False)
        sanitizer = IndexSanitizer(dht, config)
        parent = Label("010")
        good = MergeEvent(
            survivor=parent,
            absorbed=parent.right_child,  # f_n(#0101) = #010 = parent
            records_moved=0,
            dht_lookups=2,
        )
        sanitizer.check_merge(good)
        assert sanitizer.merges_checked == 1
