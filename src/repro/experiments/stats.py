"""Small statistics toolkit used by experiments and tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = ["Aggregate", "aggregate", "gini_coefficient", "powers_of_two"]


@dataclass(frozen=True, slots=True)
class Aggregate:
    """Summary of repeated-trial measurements."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.n) if self.n > 1 else 0.0

    @property
    def ci95_half_width(self) -> float:
        """Half width of a normal-approximation 95% confidence interval."""
        return 1.96 * self.sem


def aggregate(values: Iterable[float]) -> Aggregate:
    """Summarize a sample (mean, std with Bessel correction, extremes)."""
    data = [float(v) for v in values]
    if not data:
        raise ConfigurationError("cannot aggregate an empty sample")
    n = len(data)
    mean = sum(data) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in data) / (n - 1)
    else:
        var = 0.0
    return Aggregate(
        n=n, mean=mean, std=math.sqrt(var), minimum=min(data), maximum=max(data)
    )


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini inequality coefficient of a non-negative sample.

    0 means perfectly even (ideal storage balance); 1 means one peer holds
    everything.  Used by the load-balance experiment (E15).
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ConfigurationError("cannot compute Gini of an empty sample")
    if any(v < 0 for v in data):
        raise ConfigurationError("Gini requires non-negative values")
    total = sum(data)
    if total == 0:
        return 0.0
    n = len(data)
    weighted = sum((idx + 1) * v for idx, v in enumerate(data))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def powers_of_two(lo_exp: int, hi_exp: int) -> list[int]:
    """``[2**lo_exp, …, 2**hi_exp]`` — the size axes of the paper's plots."""
    if lo_exp > hi_exp:
        raise ConfigurationError(f"empty exponent range [{lo_exp}, {hi_exp}]")
    return [1 << e for e in range(lo_exp, hi_exp + 1)]
