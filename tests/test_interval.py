"""Unit tests for dyadic intervals and query ranges."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.interval import DyadicInterval, Range, UNIT_INTERVAL
from repro.errors import LabelError

intervals = st.integers(0, 12).flatmap(
    lambda level: st.integers(0, (1 << level) - 1).map(
        lambda num: DyadicInterval(num, level)
    )
)


class TestDyadicInterval:
    def test_unit_interval(self):
        assert UNIT_INTERVAL.low == 0
        assert UNIT_INTERVAL.high == 1
        assert UNIT_INTERVAL.width == 1

    def test_validation(self):
        with pytest.raises(LabelError):
            DyadicInterval(0, -1)
        with pytest.raises(LabelError):
            DyadicInterval(4, 2)  # numerator out of range
        with pytest.raises(LabelError):
            DyadicInterval(-1, 2)

    def test_endpoints(self):
        interval = DyadicInterval(3, 3)  # [3/8, 4/8)
        assert interval.low == Fraction(3, 8)
        assert interval.high == Fraction(1, 2)
        assert interval.low_float == 0.375
        assert interval.high_float == 0.5
        assert interval.midpoint == Fraction(7, 16)

    def test_contains_half_open(self):
        interval = DyadicInterval(1, 2)  # [0.25, 0.5)
        assert interval.contains(0.25)
        assert interval.contains(0.4999)
        assert not interval.contains(0.5)
        assert not interval.contains(0.2)

    def test_bounds_are_exact_at_any_level(self):
        """A bound is the float that equals it when there is one (always,
        up to level 52), a Fraction otherwise — never a rounded float."""
        shallow = DyadicInterval(3, 3)
        assert (type(shallow.low), type(shallow.midpoint)) == (float, float)
        edge = DyadicInterval((1 << 52) - 1, 52)
        assert type(edge.low) is float
        assert Fraction(edge.low) == Fraction((1 << 52) - 1, 1 << 52)
        deep = DyadicInterval((1 << 59) - 1, 60)  # [1/2 - 2**-60, 1/2)
        assert type(deep.low) is Fraction
        assert deep.low == Fraction((1 << 59) - 1, 1 << 60)
        assert type(deep.high) is float and deep.high == 0.5
        assert deep.low < deep.midpoint < deep.high
        assert not deep.overlaps(Range(0.5, 1.0))
        assert deep.covered_by(Range(0.25, 0.5))
        assert deep.to_range().lo == deep.low

    def test_halves(self):
        left = UNIT_INTERVAL.left_half()
        right = UNIT_INTERVAL.right_half()
        assert left.high == right.low == Fraction(1, 2)
        assert left.low == 0 and right.high == 1

    def test_encloses(self):
        parent = DyadicInterval(1, 1)  # [0.5, 1)
        assert parent.encloses(DyadicInterval(2, 2))  # [0.5, 0.75)
        assert parent.encloses(parent)
        assert not parent.encloses(DyadicInterval(1, 2))  # [0.25, 0.5)
        assert not DyadicInterval(2, 2).encloses(parent)

    def test_overlaps_and_covered_by(self):
        interval = DyadicInterval(1, 2)  # [0.25, 0.5)
        assert interval.overlaps(Range(0.3, 0.4))
        assert interval.overlaps(Range(0.0, 0.26))
        assert not interval.overlaps(Range(0.5, 0.7))
        assert not interval.overlaps(Range(0.1, 0.25))
        assert interval.covered_by(Range(0.25, 0.5))
        assert interval.covered_by(Range(0.0, 1.0))
        assert not interval.covered_by(Range(0.3, 1.0))

    def test_to_range(self):
        rng = DyadicInterval(1, 2).to_range()
        assert rng.lo == Fraction(1, 4) and rng.hi == Fraction(1, 2)

    @given(intervals)
    def test_halves_partition(self, interval: DyadicInterval):
        left, right = interval.left_half(), interval.right_half()
        assert left.low == interval.low
        assert left.high == right.low == interval.midpoint
        assert right.high == interval.high

    @given(intervals)
    def test_width_matches_level(self, interval: DyadicInterval):
        assert interval.width == Fraction(1, 1 << interval.level)


class TestRange:
    def test_accepts_floats_and_fractions(self):
        rng = Range(0.25, Fraction(1, 2))
        assert rng.lo == Fraction(1, 4)
        assert rng.hi == Fraction(1, 2)
        assert rng.span == Fraction(1, 4)

    def test_validation(self):
        with pytest.raises(LabelError):
            Range(0.5, 0.4)
        with pytest.raises(LabelError):
            Range(-0.1, 0.5)
        with pytest.raises(LabelError):
            Range(0.5, 1.5)

    def test_non_finite_endpoints_are_label_errors(self):
        # Not the ValueError / OverflowError of a Fraction conversion.
        nan, inf = float("nan"), float("inf")
        for lo, hi in ((nan, 0.5), (0.2, nan), (nan, nan), (0.2, inf), (-inf, 0.5)):
            with pytest.raises(LabelError):
                Range(lo, hi)

    def test_endpoints_keep_their_type_and_value(self):
        rng = Range(0.1, Fraction(1, 3))
        assert type(rng.lo) is float and rng.hi == Fraction(1, 3)
        assert rng.span == Fraction(1, 3) - Fraction(0.1)  # exact, not float
        below = 1 / 3  # the float just under the rational
        assert rng.contains(below) and not rng.contains(math.nextafter(below, 1.0))

    def test_empty(self):
        assert Range(0.3, 0.3).is_empty
        assert not Range(0.3, 0.30001).is_empty

    def test_contains_half_open(self):
        rng = Range(0.2, 0.6)
        assert rng.contains(0.2)
        assert rng.contains(0.5999)
        assert not rng.contains(0.6)
        assert not rng.contains(0.1)

    def test_intersect(self):
        rng = Range(0.2, 0.6).intersect(DyadicInterval(1, 1))  # [0.5, 1)
        assert rng.lo == Fraction(1, 2) and rng.hi == Fraction(0.6)

    def test_str(self):
        assert "0.2" in str(Range(0.2, 0.6))
