"""Fault-injection matrix: every substrate × drop rate × resilience arm.

The safety contract under injected faults, pinned across the whole
substrate zoo: an index operation over a lossy DHT may

* return an **explicit miss** (``None`` / UNREACHABLE / not-found),
* **raise** a typed :class:`~repro.errors.ReproError`, or
* return a **degraded result that declares its gaps**
  (``complete=False`` + unreachable intervals),

but it must NEVER return silently wrong data: a record that isn't
stored, a key outside the queried range, a "complete" answer that is
missing records, or a proven-ABSENT verdict for a stored key.

The matrix runs each cell twice — raw ``FaultyDHT`` and
``ResilientDHT``-wrapped — because the contract must hold identically in
both arms; the wrapper only changes *how often* the lossy outcomes
occur, never what kind they are.

The substrate axis iterates ``repro.dht.registry``, so every enrolled
overlay (all eight) is fault-tested automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndexConfig, IndexInspector, LHTIndex, MatchStatus
from repro.dht import FaultyDHT
from repro.dht.kernel import stack_layers
from repro.dht.registry import make as make_substrate, names as substrate_names, stack
from repro.errors import LookupError_, ReproError

DROP_RATES = (0.05, 0.2, 0.5)

N_KEYS = 200
N_PROBES = 30
RANGES = ((0.0, 0.25), (0.3, 0.8), (0.6, 1.0))


def _build(substrate: str, drop_rate: float, resilient: bool, cached: bool):
    """Index over [ResilientDHT over] FaultyDHT over the substrate.

    Built fault-free (every key is genuinely stored), then the drop rate
    is switched on for the probe phase.  The ``cached`` arm runs the same
    cell with the leaf cache enabled at a deliberately small capacity:
    the safety contract must hold whether an answer came from a
    validated cache hit, a stale-entry fallback, or a cold search.  The
    cache is warmed fault-free (by the build) *and* probed under faults,
    so stale-looking validation probes (dropped replies) occur.
    """
    dht = stack(f"{'resilient/' * resilient}faulty/{substrate}", 16, 0)
    *_, faulty, _ = stack_layers(dht)
    index = LHTIndex(
        dht,
        IndexConfig(theta_split=8, cache_capacity=16 if cached else None),
    )
    keys = [float(k) for k in np.random.default_rng(7).random(N_KEYS)]
    index.bulk_load(keys)
    faulty.get_drop_rate = drop_rate
    return index, keys


@pytest.fixture(
    params=[
        (name, rate, resilient, cached)
        for name in substrate_names()
        for rate in DROP_RATES
        for resilient in (False, True)
        for cached in (False, True)
    ],
    ids=lambda p: (
        f"{p[0]}-drop{p[1]}-{'resilient' if p[2] else 'raw'}"
        f"-{'cached' if p[3] else 'uncached'}"
    ),
)
def cell(request):
    substrate, rate, resilient, cached = request.param
    index, keys = _build(substrate, rate, resilient, cached)
    yield index, keys
    # Reads never write: whatever the lossy probes saw or raised, the
    # stored state still satisfies every invariant of the paper.
    IndexInspector(index.dht).verify()


class TestFaultMatrix:
    def test_exact_match_never_lies(self, cell):
        index, keys = cell
        stored = set(keys)
        for key in keys[:N_PROBES]:
            try:
                record, _ = index.exact_match(key)
            except ReproError:
                continue  # an explicit raise is a legal outcome
            if record is not None:
                assert record.key == key and key in stored

    def test_exact_match_checked_absent_is_proven(self, cell):
        index, keys = cell
        for key in keys[:N_PROBES]:
            result = index.exact_match_checked(key)
            # The key IS stored: ABSENT would be a silent lie.  PRESENT
            # and UNREACHABLE are the only legal verdicts.
            assert result.status in (MatchStatus.PRESENT, MatchStatus.UNREACHABLE)
            if result.status is MatchStatus.PRESENT:
                assert result.record is not None and result.record.key == key

    def test_repeated_probes_never_lie(self, cell):
        """Re-probing the same keys cycles hit/stale/miss cache states
        under drops; every round must stay truthful (regression guard:
        a dropped validation reply may cost, but may never flip a
        verdict or leave a poisoned entry for the next round)."""
        index, keys = cell
        stored = set(keys)
        for _ in range(3):
            for key in keys[:10]:
                result = index.exact_match_checked(key)
                assert result.status in (
                    MatchStatus.PRESENT,
                    MatchStatus.UNREACHABLE,
                )
                if result.status is MatchStatus.PRESENT:
                    assert result.record is not None
                    assert result.record.key == key and key in stored

    def test_range_query_raises_or_is_exact(self, cell):
        index, keys = cell
        for lo, hi in RANGES:
            expect = sorted(k for k in keys if lo <= k < hi)
            try:
                result = index.range_query(lo, hi)
            except ReproError:
                continue  # a detected drop is allowed to abort the query
            # No exception: the answer must be exactly right.
            assert result.keys == expect

    def test_degraded_range_query_declares_gaps(self, cell):
        index, keys = cell
        for lo, hi in RANGES:
            expect = set(k for k in keys if lo <= k < hi)
            result = index.range_query(lo, hi, degraded=True)
            got = set(result.keys)
            assert got <= expect  # subset of the truth, never out of range
            if result.complete:
                assert got == expect and not result.unreachable
            else:
                assert result.unreachable
                for key in expect - got:
                    assert any(r.contains(key) for r in result.unreachable)

    def test_degraded_minmax_bounds_the_extremum(self, cell):
        index, keys = cell
        for query, truth in (
            (index.min_query, min(keys)),
            (index.max_query, max(keys)),
        ):
            result = query(degraded=True)
            if result.complete:
                assert result.record is not None
                assert result.record.key == truth
            else:
                # The walk was cut off: the unreported extremum must lie
                # inside a declared unreachable interval.
                assert result.unreachable
                assert any(r.contains(truth) for r in result.unreachable)


class TestRaisingViewIsOnlyAView:
    """``degraded=False`` runs the typed code and only changes what an
    incomplete answer looks like to the caller."""

    @staticmethod
    def _queries(index, degraded):
        for lo, hi in RANGES + ((0.4, 0.4001),):
            yield lambda lo=lo, hi=hi: index.range_query(
                lo, hi, degraded=degraded
            )
        yield lambda: index.min_query(degraded=degraded)
        yield lambda: index.max_query(degraded=degraded)

    @pytest.mark.parametrize("resilient", (False, True), ids=("raw", "resilient"))
    @pytest.mark.parametrize("rate", (0.0,) + DROP_RATES)
    @pytest.mark.parametrize("substrate", substrate_names())
    def test_raises_iff_typed_answer_is_incomplete(
        self, substrate, rate, resilient
    ):
        # Same seeds, same fault stream: the twins see the same drops
        # (none at rate 0.0, the clean stack), so equal counters mean
        # the two spellings issued exactly the same gets.
        viewed, _ = _build(substrate, rate, resilient, cached=False)
        typed, _ = _build(substrate, rate, resilient, cached=False)
        outcomes = set()
        for _ in range(3):
            for raising, answer in zip(
                self._queries(viewed, False), self._queries(typed, True)
            ):
                result = answer()
                outcomes.add(result.complete)
                if result.complete:
                    assert raising() == result
                    continue
                with pytest.raises(LookupError_) as raised:
                    raising()
                assert result.unreachable
                for gap in result.unreachable:
                    assert str(gap) in str(raised.value)
            assert viewed.dht.metrics.snapshot() == typed.dht.metrics.snapshot()
        IndexInspector(viewed.dht).verify()
        IndexInspector(typed.dht).verify()
        if rate == 0.0:
            assert outcomes == {True}
        elif rate == 0.5 and not resilient:
            assert outcomes == {True, False}  # both arms of the iff ran


class TestMutationFaults:
    """Injected put/remove failures surface as typed errors + counters."""

    @pytest.mark.parametrize("name", substrate_names())
    def test_put_and_remove_failures_are_typed_and_counted(self, name):
        from repro.errors import DHTError

        faulty = FaultyDHT(
            make_substrate(name, 16, 0),
            put_fail_rate=1.0,
            remove_fail_rate=1.0,
            seed=1,
        )
        with pytest.raises(DHTError):
            faulty.put("k", 1)
        with pytest.raises(DHTError):
            faulty.remove("k")
        assert faulty.failed_puts == 1 and faulty.failed_removes == 1
        assert faulty.metrics.failed_puts == 1
        assert faulty.metrics.failed_removes == 1
