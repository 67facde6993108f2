"""Tests for the statistics toolkit."""

from __future__ import annotations

import pytest

from repro.experiments.stats import (
    Aggregate,
    aggregate,
    gini_coefficient,
    powers_of_two,
)
from repro.errors import ConfigurationError


class TestAggregate:
    def test_basic(self):
        agg = aggregate([1.0, 2.0, 3.0, 4.0])
        assert agg.n == 4
        assert agg.mean == 2.5
        assert agg.minimum == 1.0 and agg.maximum == 4.0
        assert agg.std == pytest.approx(1.2909944, rel=1e-6)

    def test_single_value(self):
        agg = aggregate([7.0])
        assert agg.std == 0.0
        assert agg.sem == 0.0
        assert agg.ci95_half_width == 0.0

    def test_sem_and_ci(self):
        agg = aggregate([0.0, 2.0])
        assert agg.sem == pytest.approx(1.0)
        assert agg.ci95_half_width == pytest.approx(1.96)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate([])


class TestGini:
    def test_perfect_equality(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_perfect_inequality(self):
        value = gini_coefficient([0] * 99 + [100])
        assert value == pytest.approx(0.99, abs=0.01)

    def test_known_value(self):
        # For [1, 3]: Gini = (2*(1*1 + 2*3))/(2*4) - 3/2 = 14/8 - 1.5 = 0.25
        assert gini_coefficient([1, 3]) == pytest.approx(0.25)

    def test_all_zero(self):
        assert gini_coefficient([0, 0, 0]) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            gini_coefficient([])
        with pytest.raises(ConfigurationError):
            gini_coefficient([1, -1])


class TestPowersOfTwo:
    def test_basic(self):
        assert powers_of_two(0, 3) == [1, 2, 4, 8]

    def test_single(self):
        assert powers_of_two(5, 5) == [32]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            powers_of_two(5, 4)
