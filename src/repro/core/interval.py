"""Dyadic intervals over the unit data space ``[0, 1)``.

Every node of the LHT space-partition tree covers a *dyadic* interval: one of
the form ``[v / 2**k, (v + 1) / 2**k)``.  Representing intervals with the
integer pair ``(v, k)`` keeps all tree geometry exact — no floating-point
rounding can ever make two sibling intervals overlap or leave a gap.  A
bound is handed out as the number that *equals* it: a float whenever one
does (every ``k <= 52``), a :class:`~fractions.Fraction` otherwise — so
comparing bounds with float keys and float query endpoints is exact and,
short of a tree split past level 52, plain float arithmetic
(docs/performance.md, "Range geometry without Fractions").

The module also provides :class:`Range`, the half-open query range ``[lo, hi)``
used by range queries, which is *not* restricted to dyadic endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.errors import LabelError

__all__ = ["DyadicInterval", "Range", "UNIT_INTERVAL"]


def _dyadic(numerator: int, level: int) -> float | Fraction:
    """``numerator / 2**level`` exactly.  The division rounds correctly
    and scaling back by ``2**level`` only shifts the exponent, so the
    round trip tells whether the float *is* the bound."""
    unit = 1 << level
    value = numerator / unit
    return value if value * unit == numerator else Fraction(numerator, unit)


@dataclass(frozen=True, slots=True)
class DyadicInterval:
    """The half-open dyadic interval ``[numerator / 2**level, (numerator+1) / 2**level)``.

    Attributes:
        numerator: Position of the interval within its level, in
            ``range(2**level)``.
        level: Number of binary subdivisions of ``[0, 1)``; level 0 is the
            whole unit interval.
    """

    numerator: int
    level: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise LabelError(f"negative interval level: {self.level}")
        if not 0 <= self.numerator < (1 << self.level):
            raise LabelError(
                f"numerator {self.numerator} out of range for level {self.level}"
            )

    @property
    def low(self) -> float | Fraction:
        """Exact inclusive lower endpoint."""
        return _dyadic(self.numerator, self.level)

    @property
    def high(self) -> float | Fraction:
        """Exact exclusive upper endpoint."""
        return _dyadic(self.numerator + 1, self.level)

    @property
    def low_float(self) -> float:
        """Lower endpoint as a float (exact for level <= 52)."""
        return self.numerator / (1 << self.level)

    @property
    def high_float(self) -> float:
        """Upper endpoint as a float (exact for level <= 52)."""
        return (self.numerator + 1) / (1 << self.level)

    @property
    def width(self) -> Fraction:
        """Exact interval width ``2**-level``."""
        return Fraction(1, 1 << self.level)

    def contains(self, key: float) -> bool:
        """Return whether ``key`` (a data key in [0, 1)) lies in this interval.

        Scaling by ``2**level`` only shifts a binary float's exponent
        (and is exact on Fractions), so the integer comparison below
        equals the Fraction-endpoint comparison without constructing
        any Fractions — this is the innermost test of every lookup.
        """
        scaled = key * (1 << self.level)
        return self.numerator <= scaled < self.numerator + 1

    def left_half(self) -> "DyadicInterval":
        """The lower/left dyadic child interval."""
        return DyadicInterval(self.numerator * 2, self.level + 1)

    def right_half(self) -> "DyadicInterval":
        """The upper/right dyadic child interval."""
        return DyadicInterval(self.numerator * 2 + 1, self.level + 1)

    @property
    def midpoint(self) -> float | Fraction:
        """Exact midpoint — the median split point of this interval."""
        return _dyadic(self.numerator * 2 + 1, self.level + 1)

    def encloses(self, other: "DyadicInterval") -> bool:
        """Return whether ``other`` is fully contained in this interval."""
        if other.level < self.level:
            return False
        shift = other.level - self.level
        return (other.numerator >> shift) == self.numerator

    def overlaps(self, rng: "Range") -> bool:
        """Return whether this interval intersects the query range ``rng``."""
        return self.low < rng.hi and rng.lo < self.high

    def covered_by(self, rng: "Range") -> bool:
        """Return whether this interval is fully inside the query range."""
        return rng.lo <= self.low and self.high <= rng.hi

    def to_range(self) -> "Range":
        """View this interval as a query :class:`Range`."""
        return Range(self.low, self.high)

    def __str__(self) -> str:  # pragma: no cover - repr helper
        return f"[{self.low_float:.6g}, {self.high_float:.6g})"


#: The whole data space ``[0, 1)``.
UNIT_INTERVAL = DyadicInterval(0, 0)


@dataclass(frozen=True, slots=True)
class Range:
    """A half-open query range ``[lo, hi)`` over the data space.

    Endpoints are kept as given — floats stay floats, Fractions stay
    Fractions.  Query forwarding only ever *compares* them with keys and
    with dyadic bounds (exact across all three types) or scales them by
    a power of two (exact), so range decomposition cannot suffer
    rounding drift, and on float endpoints it costs float arithmetic.
    """

    lo: float | Fraction
    hi: float | Fraction

    def __init__(self, lo: float | Fraction, hi: float | Fraction) -> None:
        if not 0 <= lo <= hi <= 1:  # false for NaN and infinities too
            raise LabelError(f"invalid query range [{lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def span(self) -> Fraction:
        """Exact range width ``hi - lo``."""
        return Fraction(self.hi) - Fraction(self.lo)

    @property
    def is_empty(self) -> bool:
        """Whether the half-open range contains no keys."""
        return self.lo >= self.hi

    def contains(self, key: float) -> bool:
        """Return whether a data key falls inside ``[lo, hi)``."""
        return self.lo <= key < self.hi

    def intersect(self, interval: DyadicInterval) -> "Range":
        """Clip this range to a dyadic interval."""
        return Range(max(self.lo, interval.low), min(self.hi, interval.high))

    def __str__(self) -> str:  # pragma: no cover - repr helper
        return f"[{float(self.lo):.6g}, {float(self.hi):.6g})"
