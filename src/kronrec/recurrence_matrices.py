"""Band matrices and recurrence vectors attached to a linear recurrence.

For A = a_0 + a_1 x + ... + a_d x^d the band matrix [A]_l is the l x (l+d)
matrix whose row i carries a_0..a_d starting at column i; its rows express
the recurrence applied at shifts 0..l-1, and the construction runs on any
coefficient sequence, rational ones included.  recurrence_extend extends d
seed values exactly along the recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .exact_linalg import coerce_rational
from .poly_core import IntPolynomial

__all__ = [
    "recurrence_extend",
    "band_rows",
]


def _check_coeffs(coeffs: Sequence) -> list:
    cs = list(coeffs)
    if len(cs) < 1 or cs[-1] == 0:
        raise DomainError("coefficient sequence needs a nonzero leading entry")
    if cs[0] == 0:
        raise DomainError("coefficient sequence needs a nonzero constant entry")
    return cs


def band_rows(coeffs: Sequence, ell: int) -> list[list]:
    """Rows of [A]_l for any coefficient sequence; l x (l + deg)."""
    cs = _check_coeffs(coeffs)
    if ell < 1:
        raise DomainError("band matrix needs ell >= 1")
    d = len(cs) - 1
    zero = cs[0] * 0
    return [[cs[j - i] if 0 <= j - i <= d else zero for j in range(ell + d)] for i in range(ell)]


def recurrence_extend(poly: IntPolynomial, init: Sequence, m: int) -> tuple[Fraction, ...]:
    """The d seed values extended to m entries along sum_j a_j v_{i+j} = 0.

    Seeds are read by coerce_rational, so a non-finite or non-numeric one
    raises DomainError.  Denominators of the exact rational entries divide a_d^(m-d).
    """
    d = poly.degree
    if d < 1:
        raise DomainError("recurrence extension needs degree >= 1")
    if len(init) != d:
        raise DomainError(f"need exactly {d} seed values, got {len(init)}")
    if m < d:
        raise DomainError("m must be at least the degree")
    entries = [coerce_rational(x) for x in init]
    a = poly.coeffs
    for i in range(m - d):
        acc = Fraction(0)
        for j in range(d):
            acc += a[j] * entries[i + j]
        entries.append(-acc / a[d])
    return tuple(entries)
