"""Snapshot arithmetic and serialization, and the cache counters.

Every counter is declared once as a :class:`MetricsSnapshot` field, so
``to_dict``, subtraction and the recorder's ``reset`` cover each one.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.dht.metrics import MetricsRecorder, MetricsSnapshot


class TestSnapshotArithmetic:
    def test_self_subtraction_is_zero(self):
        recorder = MetricsRecorder()
        recorder.record_put(hops=3)
        snap = recorder.snapshot()
        zero = snap - snap
        assert all(getattr(zero, f.name) == 0 for f in fields(zero))


class TestSnapshotSerialization:
    def test_round_trip(self):
        recorder = MetricsRecorder()
        recorder.record_get(hops=1, found=True)
        recorder.record_cache_hit()
        snap = recorder.snapshot()
        assert MetricsSnapshot(**snap.to_dict()) == snap

    def test_to_dict_covers_every_field(self):
        snap = MetricsRecorder().snapshot()
        assert set(snap.to_dict()) == {f.name for f in fields(snap)}


class TestCacheCounters:
    def test_cache_counters_recorded_and_reset(self):
        recorder = MetricsRecorder()
        recorder.record_cache_hit()
        recorder.record_cache_hit()
        recorder.record_cache_miss()
        recorder.record_cache_stale()
        snap = recorder.snapshot()
        assert (snap.cache_hits, snap.cache_misses, snap.cache_stale) == (
            2,
            1,
            1,
        )
        recorder.reset()
        fresh = recorder.snapshot()
        assert fresh.cache_hits == fresh.cache_misses == fresh.cache_stale == 0

    def test_cache_counters_charge_no_routed_traffic(self):
        recorder = MetricsRecorder()
        recorder.record_cache_hit()
        recorder.record_cache_miss()
        recorder.record_cache_stale()
        snap = recorder.snapshot()
        assert snap.dht_lookups == 0 and snap.gets == 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
