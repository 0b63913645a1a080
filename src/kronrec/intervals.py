"""Closed floating point intervals with outward rounding.

Every arithmetic helper widens its result by one ulp on each side, so an
Interval that starts as a true enclosure stays one under the operations used
in this package (sums, products, reciprocals of positive intervals, max with
a constant).  Widths here are always tiny; no attempt is made to keep them
sharp, only sound.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


class _IntervalFields(NamedTuple):
    lo: float
    hi: float


class Interval(_IntervalFields):
    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "Interval":
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def from_int(n: int) -> "Interval":
        # ints beyond 2**53 do not convert exactly
        f = float(n)
        if int(f) == n:
            return Interval(f, f)
        return Interval(_down(f), _up(f))

    @staticmethod
    def from_center(center: float, radius: float) -> "Interval":
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return Interval(_down(center - radius), _up(center + radius))

    @property
    def mid(self) -> float:
        # halving first cannot overflow, and is exact away from the subnormals
        return 0.5 * self.lo + 0.5 * self.hi

    @property
    def halfwidth(self) -> float:
        m = self.mid
        return _up(max(self.hi - m, m - self.lo, 0.0))

    def add(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def mul(self, other: "Interval") -> "Interval":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(_down(min(cands)), _up(max(cands)))

    def scale(self, c: float) -> "Interval":
        if c >= 0:
            return Interval(_down(self.lo * c), _up(self.hi * c))
        return Interval(_down(self.hi * c), _up(self.lo * c))

    def recip(self) -> "Interval":
        # only defined for strictly positive intervals here
        if self.lo <= 0:
            raise ValueError("reciprocal needs a strictly positive interval")
        return Interval(_down(1.0 / self.hi), _up(1.0 / self.lo))

    def max_with(self, c: float) -> "Interval":
        return Interval(max(self.lo, c), max(self.hi, c))


def interval_min(a: Interval, b: Interval) -> Interval:
    """Enclosure of min(x, y) for x in a, y in b."""
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))
