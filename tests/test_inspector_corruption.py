"""Corruption-detection table: every broken state × every entry point.

One parametrised table injects each inconsistency into an otherwise
healthy distributed index and asserts that every entry point that must
catch it does — guaranteeing the verifier used throughout the suite
(``IndexInspector.verify``), a fresh sanitizer sweep
(``IndexSanitizer.check``) and the hook wired into ``LHTIndex`` (the
next sanitized mutation) all have teeth, and that they are the *same*
teeth: one structural check in ``repro.core.stats``.

The two rows that need an ``IndexConfig`` (depth cap, occupancy growth)
are the sanitizer's own; ``verify()`` is stateless and must let them
pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    IndexConfig,
    IndexInspector,
    Label,
    LeafBucket,
    LHTIndex,
    Record,
)
from repro.core.stats import IndexSanitizer
from repro.dht import LocalDHT
from repro.errors import SanitizerError

CONFIG = IndexConfig(theta_split=4, max_depth=20, sanitize=True)


def _healthy() -> tuple[LHTIndex, LocalDHT]:
    """A sanitized build (so the healthy state passed every sweep)."""
    dht = LocalDHT(16, 0)
    index = LHTIndex(dht, CONFIG)
    for key in np.random.default_rng(0).random(40):
        index.insert(float(key))
    IndexInspector(dht).verify()  # sanity: healthy before corruption
    return index, dht


def _victim(dht: LocalDHT) -> tuple[str, LeafBucket]:
    """The leaf covering 0.9 and its DHT key: every corruption lands
    here, so probe mutations near 0.05 still route cleanly."""
    for key, bucket in IndexInspector(dht).buckets().items():
        if bucket.label.contains(0.9):
            assert bucket.label.depth > 2
            return str(key), bucket
    raise AssertionError("no leaf covers 0.9")


def _split_in_place(dht: LocalDHT, bucket: LeafBucket) -> None:
    """A legal Alg. 1 split done by hand (Theorem 2: the local child
    keeps the DHT key, the remote one moves under the parent label)."""
    parent = bucket.label
    children = (parent.left_child, parent.right_child)
    remote, local = children if parent.last_bit == "1" else children[::-1]
    moved = bucket.take_records_in(remote.interval.to_range())
    bucket.label = local
    dht.put(str(parent), LeafBucket(remote, moved))


# --- the corruptions ---------------------------------------------------


def wrong_key(dht: LocalDHT) -> None:
    dht.put("#01110011", _victim(dht)[1])  # not a name of this tree


def missing_leaf(dht: LocalDHT) -> None:
    dht.remove(_victim(dht)[0])


def overlapping_leaf(dht: LocalDHT) -> None:
    # A second leaf inside the victim's interval, correctly *placed*:
    # the victim's remote child lives under the victim's own label.
    label = _victim(dht)[1].label
    child = label.left_child if label.last_bit == "1" else label.right_child
    dht.put(str(label), LeafBucket(child))


def record_outside(dht: LocalDHT) -> None:
    # Bypass the validated API to plant a foreign record.
    _victim(dht)[1]._records.append(Record(0.0001))  # noqa: SLF001


def relabelled(dht: LocalDHT) -> None:
    bucket = _victim(dht)[1]
    bucket.label = bucket.label.sibling


def unparsable_key(dht: LocalDHT) -> None:
    dht.put("not-a-label", LeafBucket(Label("01")))


def over_deep(dht: LocalDHT) -> None:
    bucket = _victim(dht)[1]
    while bucket.label.depth <= CONFIG.max_depth:
        _split_in_place(dht, bucket)


def over_stuffed(dht: LocalDHT) -> None:
    bucket = _victim(dht)[1]
    low, width = bucket.label.interval.low, bucket.label.interval.width
    bucket.extend([Record(float(low + width * (i + 1) / 40)) for i in range(30)])


# --- the entry points --------------------------------------------------


def verify(index: LHTIndex, dht: LocalDHT) -> None:
    IndexInspector(dht).verify()


def check(index: LHTIndex, dht: LocalDHT) -> None:
    IndexSanitizer(dht, CONFIG).check()


def mutation(index: LHTIndex, dht: LocalDHT) -> None:
    """The wired-in hook: corrupt between operations, the next inserts
    trip the sweep (a SanitizerError, not a lost lookup)."""
    for i in range(4):
        index.insert(0.05 + i * 1e-3)


EVERY_ENTRY = (verify, check, mutation)
NEEDS_CONFIG = (check, mutation)

#: corruption, the message of the one check that states it, who catches it.
TABLE = [
    (wrong_key, r"Theorem 1 violated: bucket .* stored under", EVERY_ENTRY),
    (missing_leaf, r"partition violated: gap", EVERY_ENTRY),
    (overlapping_leaf, r"partition violated: overlap", EVERY_ENTRY),
    (record_outside, r"record key outside leaf", EVERY_ENTRY),
    (relabelled, r"Theorem 1 violated: bucket .* stored under", EVERY_ENTRY),
    (unparsable_key, r"unparsable DHT key 'not-a-label'", EVERY_ENTRY),
    (over_deep, r"deeper than max depth 20", NEEDS_CONFIG),
    (over_stuffed, r"over capacity 3", NEEDS_CONFIG),
]

CASES = [
    pytest.param(corrupt, message, entry, id=f"{corrupt.__name__}-{entry.__name__}")
    for corrupt, message, entries in TABLE
    for entry in entries
]


class TestCorruptionDetection:
    @pytest.mark.parametrize("corrupt, message, entry", CASES)
    def test_caught(self, corrupt, message, entry):
        index, dht = _healthy()
        corrupt(dht)
        with pytest.raises(SanitizerError, match=message) as raised:
            entry(index, dht)
        if entry is mutation:
            assert str(raised.value).startswith("[insert] ")

    @pytest.mark.parametrize("corrupt", [over_deep, over_stuffed])
    def test_stateless_verify_knows_no_config(self, corrupt):
        """Depth cap and occupancy are ``IndexConfig`` facts: the tree is
        still a well-formed LHT, so ``verify()`` passes."""
        _, dht = _healthy()
        corrupt(dht)
        IndexInspector(dht).verify()

    def test_empty_store_rejected(self):
        dht = LocalDHT(4, 0)
        with pytest.raises(SanitizerError, match="no leaf buckets"):
            IndexInspector(dht).verify()

    def test_healthy_state_passes(self):
        index, dht = _healthy()
        IndexInspector(dht).verify()
        assert index.sanitizer is not None and index.sanitizer.checks_run > 0
